"""Tests for repro.conformance: the engines catch what they claim to catch.

Three kinds of test:

* positive — every engine runs green over the real in-tree specs and
  machines, deterministically in the seed;
* negative (fault injection) — a deliberately corrupted codec field, a
  corrupted baseline encoder, and a tampered machine transition must each
  produce a shrunk, replayable counterexample;
* unit — shrinkers, coverage accounting, corpus round-trips, CLI.
"""

import io
import random

import pytest
from hypothesis import given, strategies as st

import repro.conformance.differential as differential_module
from repro.conformance import (
    Corpus,
    CorpusEntry,
    CoverageMap,
    DifferentialEngine,
    MachineConformance,
    MutationFuzzer,
    classify,
    all_machine_entries,
    all_spec_entries,
    run_all,
    shrink_bytes,
    shrink_sequence,
)
from repro.conformance.machineconf import decode_ops, encode_ops
from repro.conformance.mutate import ACCEPT, BUG_NONVERBATIM, _get_bits, _set_bits
from repro.conformance.registry import SpecEntry
from repro.conformance.runner import replay, replay_corpus
from repro.core.fields import Bytes, UInt
from repro.core.packet import PacketSpec
from repro.core.symbolic import Var, this
from repro.obs import records
from repro.protocols.arq import build_sender_spec
from repro.testing import random_packet


# -- shrinkers ----------------------------------------------------------


class TestShrinkers:
    def test_shrink_bytes_finds_minimal_witness(self):
        data = bytes(range(1, 40)) + b"\x42" + bytes(range(50, 90))
        shrunk = shrink_bytes(data, lambda d: 0x42 in d)
        assert shrunk == b"\x42"

    def test_shrink_bytes_returns_original_when_nothing_smaller_fails(self):
        data = b"\x01\x02\x03"
        assert shrink_bytes(data, lambda d: d == data) == data

    def test_shrink_bytes_result_always_fails(self):
        predicate = lambda d: len(d) >= 3 and d[0] > 10
        shrunk = shrink_bytes(bytes(range(11, 30)), predicate)
        assert predicate(shrunk)
        assert len(shrunk) == 3

    def test_shrink_sequence_finds_minimal_subsequence(self):
        items = list("abcXdefXg")
        shrunk = shrink_sequence(items, lambda s: s.count("X") >= 2)
        assert shrunk == ["X", "X"]

    def test_shrink_budget_is_respected(self):
        calls = []

        def predicate(d):
            calls.append(1)
            return True

        shrink_bytes(bytes(100), predicate, max_evaluations=17)
        assert len(calls) <= 17


# -- coverage -----------------------------------------------------------


class TestCoverage:
    def test_first_observation_is_new_coverage(self):
        coverage = CoverageMap()
        assert coverage.record_error_path("S", "BadChecksum") is True
        assert coverage.record_error_path("S", "BadChecksum") is False
        assert coverage.record_error_path("S", "Truncated") is True
        assert coverage.hits("conformance.error_paths", spec="S", path="BadChecksum") == 2

    def test_pick_prefers_uncovered_candidates(self):
        coverage = CoverageMap()
        rng = random.Random(0)
        for _ in range(50):
            coverage.record_field_mutation("S", "hot")
        picks = [
            coverage.pick(
                rng,
                ["hot", "cold"],
                key=lambda c: ("conformance.field_mutations", {"spec": "S", "field": c}),
            )
            for _ in range(200)
        ]
        assert picks.count("cold") > picks.count("hot")

    def test_summary_is_json_ready(self):
        coverage = CoverageMap()
        coverage.record_outcome("fuzz", "S", "accept")
        summary = coverage.summary()
        assert summary["conformance.outcomes"] == {"points": 1, "hits": 1}


# -- corpus -------------------------------------------------------------


class TestCorpus:
    def test_entry_json_roundtrip(self):
        entry = CorpusEntry(
            engine="fuzz",
            subject="ArqData",
            outcome="bug_crash",
            data=b"\x00\xff",
            shrunk=b"\xff",
            seed=7,
            detail="decode raised X",
            meta={"k": "v"},
        )
        stream = io.StringIO()
        records.write(stream, [records.Record("entry", entry.to_dict())])
        (record,) = records.read(io.StringIO(stream.getvalue()))
        assert record.kind == "entry" and record.ts is None
        assert CorpusEntry.from_dict(record.body) == entry
        assert entry.reproducer() == b"\xff"

    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        corpus = Corpus(path)
        corpus.add(CorpusEntry("fuzz", "S", "interesting:accept", b"ab"))
        corpus.add(CorpusEntry("fuzz", "S", "bug_crash", b"cd", shrunk=b"c"))
        corpus.save()
        reloaded = Corpus(path)
        assert len(reloaded) == 2
        assert len(reloaded.failures()) == 1
        assert reloaded.by_subject("S")[0].data == b"ab"


# -- the fuzzer, positive and negative ----------------------------------


def _spec_entry(name):
    return next(e for e in all_spec_entries() if e.name == name)


class TestMutationFuzzer:
    def test_all_registry_specs_have_working_generators(self):
        rng = random.Random(0)
        for entry in all_spec_entries():
            packet = entry.generate(rng)
            wire = entry.spec.encode(packet)
            assert classify(entry.spec, wire)[0] == ACCEPT

    def test_clean_specs_produce_no_findings(self):
        coverage = CoverageMap()
        for name in ("ArqData", "Ipv4Header"):
            entry = _spec_entry(name)
            fuzzer = MutationFuzzer(entry, random.Random(1), coverage)
            assert fuzzer.run(150) == []

    def test_corrupted_field_decode_yields_shrunk_replayable_counterexample(self):
        """The acceptance check: corrupt one codec field and the fuzzer
        must hand back a minimized reproducer that still demonstrates the
        bug on replay."""

        class LyingUInt(UInt):
            # Deliberate corruption: values above 7 decode with bit 0
            # flipped, so a verified packet no longer re-encodes verbatim.
            def decode(self, reader, env):
                value = super().decode(reader, env)
                return value ^ 1 if value > 7 else value

        broken = PacketSpec(
            "BrokenDemo",
            fields=[
                LyingUInt("seq", bits=8),
                UInt("length", bits=8),
                Bytes("payload", length=this.length),
            ],
        )
        entry = SpecEntry(broken, lambda rng: random_packet(broken, rng))
        coverage = CoverageMap()
        corpus = Corpus()
        fuzzer = MutationFuzzer(
            entry, random.Random(0), coverage, corpus=corpus, seed=0
        )
        findings = fuzzer.run(300)
        nonverbatim = [f for f in findings if f.outcome == BUG_NONVERBATIM]
        assert nonverbatim, "corrupted decoder was not detected"
        finding = nonverbatim[0]
        # Shrunk, and the shrunk reproducer still fails the same way.
        assert len(finding.shrunk) <= len(finding.data)
        assert classify(broken, finding.shrunk)[0] == BUG_NONVERBATIM
        # ...and it was persisted to the corpus in replayable form.
        persisted = [e for e in corpus.failures() if e.subject == "BrokenDemo"]
        assert persisted
        assert classify(broken, persisted[0].reproducer())[0] == BUG_NONVERBATIM


# The per-bit loops the fuzzer used before its bit helpers went bulk: the
# reference the helpers must match, clipping at the end of the buffer.


def _ref_set_bits(data, start, width, value):
    out = bytearray(data)
    for offset in range(width):
        bit = (value >> (width - 1 - offset)) & 1
        position = start + offset
        if position >= len(out) * 8:
            break
        mask = 1 << (7 - position % 8)
        if bit:
            out[position // 8] |= mask
        else:
            out[position // 8] &= ~mask & 0xFF
    return bytes(out)


def _ref_get_bits(data, start, width):
    value = 0
    for offset in range(width):
        position = start + offset
        if position >= len(data) * 8:
            break
        bit = (data[position // 8] >> (7 - position % 8)) & 1
        value = (value << 1) | bit
    return value


class TestBitHelpers:
    @pytest.mark.parametrize(
        "data,start,width",
        [
            (b"", 0, 0),
            (b"", 0, 8),  # empty buffer
            (b"", 13, 3),
            (b"\xa5", 8, 4),  # starts at the end
            (b"\xa5\x5a", 21, 9),  # starts past the end
            (b"\xa5", 4, 8),  # runs past the end
            (b"\xa5\x5a", 3, 70),
            (b"\xa5\x5a", 0, 0),  # width 0
            (b"\xa5\x5a", 7, 0),
            (b"\xa5\x5a", 0, 16),  # whole buffer
            (b"\xa5\x5a\xff", 5, 1),  # one bit
            (bytes(range(200)), 9, 1500),  # long payload field
        ],
    )
    def test_edges_match_per_bit_reference(self, data, start, width):
        for value in (0, 1, (1 << width) - 1, 0x5A5A5A5A5A5A5A5A5A >> 3):
            assert _set_bits(data, start, width, value) == _ref_set_bits(
                data, start, width, value
            )
        assert _get_bits(data, start, width) == _ref_get_bits(data, start, width)

    @given(
        st.binary(max_size=16),
        st.integers(0, 160),
        st.integers(0, 96),
        st.integers(0, 2**100),
    )
    def test_random_ranges_match_per_bit_reference(self, data, start, width, value):
        assert _set_bits(data, start, width, value) == _ref_set_bits(
            data, start, width, value
        )
        assert _get_bits(data, start, width) == _ref_get_bits(data, start, width)


# -- differential, positive and negative --------------------------------


class TestDifferential:
    def test_oracles_agree_on_clean_tree(self):
        engine = DifferentialEngine(random.Random(0), CoverageMap())
        assert engine.run(200) == []

    def test_corrupted_baseline_encoder_is_flagged(self, monkeypatch):
        real = differential_module.pack_data

        def corrupted(seq, payload):
            frame = bytearray(real(seq, payload))
            frame[-1] ^= 0x01 if frame else 0
            return bytes(frame)

        monkeypatch.setattr(differential_module, "pack_data", corrupted)
        engine = DifferentialEngine(random.Random(0), CoverageMap())
        findings = engine.run_arq(10)
        assert findings
        assert findings[0].subject == "ArqData"
        assert "disagree" in findings[0].detail

    def test_asn1_der_per_agree(self):
        engine = DifferentialEngine(random.Random(2), CoverageMap())
        assert engine.run_asn1(100) == []


# -- machine conformance, positive and negative -------------------------


def _machine_entry(name):
    return next(e for e in all_machine_entries() if e.name == name)


def _tampered_sender_spec():
    """An ARQ sender whose OK transition skips a sequence number —
    the runtime drifts from the spec the model was built from."""
    spec = build_sender_spec(max_seq_bits=4)
    ready = spec.states["Ready"]
    n = Var("seq")
    spec.transition_named("OK").target = ready(n + 2)
    return spec


class TestMachineConformance:
    def test_every_machine_conforms_to_its_model(self):
        coverage = CoverageMap()
        for entry in all_machine_entries():
            conformance = MachineConformance(entry, random.Random(4), coverage)
            assert conformance.run(120) == [], entry.name

    def test_tampered_transition_target_is_caught_shrunk_and_replayable(self):
        entry = _machine_entry("ArqSender")
        corpus = Corpus()
        conformance = MachineConformance(
            entry,
            random.Random(3),
            CoverageMap(),
            corpus=corpus,
            seed=3,
            runtime_build=_tampered_sender_spec,
        )
        findings = conformance.run(200)
        assert findings, "tampered OK target was not detected"
        finding = findings[0]
        assert finding.outcome == "bug_divergence"
        assert "OK" in finding.detail
        # The shrunk event sequence decodes and still diverges on replay.
        ops = decode_ops(finding.shrunk)
        assert len(ops) <= len(decode_ops(finding.data))
        assert conformance._replay_diverges(ops) is not None
        # Persisted for the regression gate.
        assert corpus.failures()

    def test_event_sequences_roundtrip_through_the_corpus_encoding(self):
        entry = _machine_entry("ArqSender")
        conformance = MachineConformance(entry, random.Random(9), CoverageMap())
        from repro.core.machine import Machine

        machine = Machine(entry.build())
        rng = random.Random(9)
        ops = []
        for transition in machine.spec.transitions:
            payload, inputs = entry.arm(transition, machine, rng)
            ops.append((transition.name, payload, inputs))
        decoded = decode_ops(encode_ops(ops))
        assert [(n, i) for n, _, i in decoded] == [(n, i) for n, _, i in ops]


# -- the runner and CLI --------------------------------------------------


class TestRunner:
    def test_small_full_run_is_green(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        report = run_all(seed=0, budget=120, corpus_path=path)
        assert report.ok, report.render()
        assert {e.engine for e in report.engines} == {
            "fuzz",
            "differential",
            "machine",
        }
        assert report.coverage["conformance.transitions_fired"]["points"] > 0
        # Everything persisted replays without drift.
        checked, drifts = replay_corpus(path)
        assert checked == len(Corpus(path))
        assert drifts == []

    def test_a_second_run_into_one_corpus_writes_the_same_bytes(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        run_all(seed=0, budget=120, corpus_path=str(path))
        first = path.read_bytes()
        run_all(seed=0, budget=120, corpus_path=str(path))
        assert first and path.read_bytes() == first

    def test_same_seed_reproduces_the_same_run(self):
        first = run_all(seed=5, budget=60, engines=("fuzz",), specs=("ArqData",))
        second = run_all(seed=5, budget=60, engines=("fuzz",), specs=("ArqData",))
        assert first.to_json() == second.to_json()

    def test_machine_demotion_entry_names_its_missing_payload(self):
        # What Machine._demote records: a machine name and the op, no data.
        meta = {"op": "exec", "transition": "OK", "state": "Wait(0)"}
        entry = CorpusEntry("fastpath", "ArqSender", "demotion", b"", meta=meta)
        assert replay(entry) == (
            "unreplayable",
            "machine demotion entries record no payload",
        )
        entry = CorpusEntry("fastpath", "NoSuchMachine", "demotion", b"", meta=meta)
        assert replay(entry) == (
            "unreplayable",
            "'NoSuchMachine' is not in the registry",
        )

    def test_cli_green_run_and_replay(self, tmp_path, capsys):
        from repro.conformance.__main__ import main

        corpus = str(tmp_path / "c.jsonl")
        assert (
            main(
                [
                    "--seed",
                    "0",
                    "--budget",
                    "60",
                    "--engines",
                    "fuzz",
                    "--specs",
                    "ArqAck",
                    "--corpus",
                    corpus,
                ]
            )
            == 0
        )
        assert "OK" in capsys.readouterr().out
        assert main(["--replay", corpus]) == 0
        assert "replayed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "broken, workers",
        [(True, "1"), (False, "1"), (True, "2"), (False, "2")],
        ids=["divergent", "clean", "divergent-workers2", "clean-workers2"],
    )
    def test_cli_verify_run_fails_when_it_demotes_a_spec(
        self, monkeypatch, capsys, broken, workers
    ):
        from repro import fastpath
        from repro.conformance.__main__ import main
        from repro.core import compile as core_compile

        real_compile = core_compile.compile_spec

        def flipping_compile(spec):
            # An ArqAck codec whose decoding flips seq, on both entry points.
            codec = real_compile(spec)
            if spec.name != "ArqAck":
                return codec

            def parse(data):
                values = codec.parse(data)
                return dict(values, seq=values["seq"] ^ 1)

            def verify(data):
                values, violated = codec.verify(data)
                return dict(values, seq=values["seq"] ^ 1), violated

            return codec._replace(parse=parse, verify=verify)

        previous = fastpath.get_policy()
        if broken:
            monkeypatch.setattr(core_compile, "compile_spec", flipping_compile)
        fastpath.reset()
        try:
            argv = ["--seed", "0", "--budget", "300", "--fastpath", "verify"]
            code = main([*argv, "--workers", workers])
        finally:
            monkeypatch.undo()
            fastpath.reset()
            fastpath.set_policy(previous)
        out = capsys.readouterr().out
        if broken:
            assert code == 1
            assert "DEMOTED ArqAck: verify-mismatch" in out
        else:
            assert code == 0
            assert "DEMOTED" not in out


@pytest.mark.fuzz
class TestAcceptanceBudget:
    """The ISSUE acceptance command, at a CI-sized budget (the nightly
    lane runs the full 2000+ per engine)."""

    def test_all_engines_green_on_every_subject(self):
        report = run_all(seed=0, budget=400)
        assert report.ok, report.render()
