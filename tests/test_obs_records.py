"""``repro.obs.records``: one record format and one reader for every JSONL file.

The contracts under test:

* every kind repro writes round-trips through :func:`records.write` and
  :func:`records.read`;
* a torn last line (a writer killed mid-line) is skipped, while an
  undecodable line anywhere else, or a line of another schema, raises;
* :func:`records.follow` — ``python -m repro.obs top``'s tail loop —
  yields records as they are appended, starts over after the file is
  truncated, and stops after ``stop_after``;
* a corpus whose last line is torn still replays and still seeds a run;
* a flight-recorder bundle is a corpus entry plus context: ``--replay``
  replays its entry and ``python -m repro.obs report`` renders its
  metrics and spans.
"""

import io
import queue
import threading
import time

import pytest

from repro import obs
from repro.conformance.corpus import CorpusEntry, load_entries
from repro.conformance.mutate import classify
from repro.conformance.registry import all_spec_entries
from repro.obs import records
from repro.obs.live import flightrec
from repro.obs.records import Record
from repro.serve.record import ExchangeRecorder, load_records, save_records


def _every_kind():
    tracer = obs.Tracer()
    with tracer.span("s", machine="m"):
        tracer.event("e", k=1)
    clock = iter([0.0, 0.5]).__next__
    recorder = ExchangeRecorder("arq", "peer:1", clock=clock, seed=3)
    recorder.frame_in(b"\x01\x02")
    registry = obs.MetricsRegistry()
    registry.counter("c", k="v").inc(2)
    registry.histogram("h", bounds=[1, 2]).observe(1.5)
    entry = CorpusEntry("fuzz", "ArqData", "bug_crash", b"\x00", shrunk=b"", seed=1)
    return [
        *tracer.to_records(),
        Record("metrics", {"metrics": registry.snapshot()}, 1.5),
        Record("export", {"seq": 1, "phase": "live", "metrics": registry.snapshot()}, 2.0),
        Record("exchange", recorder.record.to_dict()),
        Record("entry", entry.to_dict()),
        Record("frame", {"context": "a->b", "data": "aabb"}, 3.0),
    ]


def test_every_kind_round_trips(tmp_path):
    path = tmp_path / "all.jsonl"
    written = _every_kind()
    assert records.write(str(path), written) == len(written)
    assert records.read(str(path)) == written
    assert {r.kind for r in written} == {
        "span", "metrics", "export", "exchange", "entry", "frame",
    }
    stream = io.StringIO()
    records.write(stream, written)
    assert records.read(io.StringIO(stream.getvalue())) == written


def test_the_public_kind_filters_read_their_kind_only(tmp_path):
    path = str(tmp_path / "mixed.jsonl")
    records.write(path, _every_kind())
    (entry,) = load_entries(path)
    assert entry.reproducer() == b""  # an empty shrunk form still wins
    with open(path, encoding="utf-8") as handle:
        (exchange,) = load_records(handle)
    assert exchange.inbound_script() == [(0.5, b"\x01\x02")]
    with open(path, encoding="utf-8") as handle:
        spans = obs.Tracer.from_jsonl(handle.read())
    assert [s.name for s in spans] == ["s", "e"]
    stream = io.StringIO()
    assert save_records([exchange], stream) == 1
    assert [r.kind for r in records.read(io.StringIO(stream.getvalue()))] == ["exchange"]


def test_a_torn_last_line_is_skipped(tmp_path):
    path = tmp_path / "torn.jsonl"
    written = _every_kind()
    records.write(str(path), written)
    whole = path.read_text(encoding="utf-8")
    path.write_text(whole + records.dumps(written[0])[:17], encoding="utf-8")
    assert records.read(str(path)) == written
    path.write_text(whole + "\n\n", encoding="utf-8")  # blank lines too
    assert records.read(str(path)) == written


def test_an_undecodable_line_elsewhere_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    line = records.dumps(Record("frame", {"context": "", "data": ""}))
    path.write_text(line + "\n" + line[:17] + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: undecodable"):
        records.read(str(path))
    path.write_text(line + "\n" + line[:17] + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: undecodable"):
        records.read(str(path))  # it has its newline, so it is not torn


@pytest.mark.parametrize("last", [False, True])
def test_a_line_of_another_schema_raises(tmp_path, last):
    path = tmp_path / "other.jsonl"
    line = records.dumps(Record("entry", {}))
    other = '{"schema": "repro.obs/live-export/v1", "kind": "final"}'
    lines = [line, other] if last else [other, line]
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="live-export"):
        records.read(str(path))


def _consume(stream):
    """Drain ``stream`` on a thread: its records, or its error, arrive on a queue.

    A ``follow`` that waits when it should yield then fails the test at a
    ``get`` timeout instead of hanging it.
    """
    out = queue.Queue()

    def run():
        try:
            for record in stream:
                out.put(record)
        except Exception as exc:
            out.put(exc)

    threading.Thread(target=run, daemon=True).start()
    return out


def test_follow_yields_appends_restarts_on_truncation_and_stops(tmp_path):
    path = str(tmp_path / "stream.jsonl")
    first = [Record("export", {"seq": n, "phase": "live", "metrics": {}}, float(n))
             for n in (1, 2)]
    records.write(path, first)
    got = _consume(records.follow(path, poll=0.01, stop_after=4))
    assert [got.get(timeout=5), got.get(timeout=5)] == first
    # A line is yielded only once its newline lands.
    later = Record("export", {"seq": 3, "phase": "final", "metrics": {}}, 3.0)
    line = records.dumps(later)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[:20])
    time.sleep(0.2)  # twenty polls
    assert got.empty()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[20:] + "\n")
    assert got.get(timeout=5) == later
    # A new run truncates the file: follow reads it again from the start.
    fresh = Record("frame", {"context": "", "data": ""})
    records.write(path, [fresh])
    assert got.get(timeout=5) == fresh
    records.write(path, first + [later])
    assert list(records.follow(path, poll=0.01, stop_after=2)) == first


def test_follow_waits_for_a_missing_file(tmp_path):
    path = str(tmp_path / "late.jsonl")
    record = Record("frame", {"context": "", "data": "00"})
    writer = threading.Timer(0.05, records.write, (path, [record]))
    writer.start()
    try:
        assert list(records.follow(path, poll=0.01, stop_after=1)) == [record]
    finally:
        writer.join()


def test_top_follows_a_stream_until_its_final_record(tmp_path):
    from repro.obs.live.top import top_command

    path = str(tmp_path / "live.jsonl")
    records.write(path, [
        Record("export", {"seq": 1, "phase": "live", "metrics": {}}, 1.0),
        Record("export", {"seq": 2, "phase": "final", "metrics": {}}, 2.0),
    ])
    out = io.StringIO()
    assert top_command(path, interval=0.05, out=out) == 0
    assert out.getvalue().count("repro.obs top") == 2
    assert "phase=final" in out.getvalue()


def test_a_corpus_with_a_torn_last_line_replays_and_seeds_a_run(tmp_path, capsys):
    from repro.conformance.__main__ import main

    path = str(tmp_path / "corpus.jsonl")
    argv = ["--seed", "0", "--budget", "300", "--engines", "fuzz", "machine"]
    assert main([*argv, "--corpus", path]) == 0
    complete = load_entries(path)
    with open(path, "rb") as handle:
        data = handle.read()
    cut = data.rstrip(b"\n").rindex(b"\n") + 40  # inside the last line
    with open(path, "wb") as handle:
        handle.write(data[:cut])
    assert len(load_entries(path)) == len(complete) - 1
    assert main(["--replay", path]) == 0
    assert f"replayed {len(complete) - 1} corpus entries" in capsys.readouterr().out
    assert main([*argv, "--corpus", path]) == 0  # loads what is whole
    assert load_entries(path)[: len(complete) - 1] == complete[:-1]


def test_a_bundle_replays_and_reports(tmp_path, capsys):
    from repro.conformance.__main__ import main as conformance
    from repro.obs.__main__ import main as obs_cli

    spec = next(e.spec for e in all_spec_entries() if e.name == "ArqData")
    data = b"\x01\x00"
    outcome, detail = classify(spec, data)
    instr = obs.Instrumentation(enabled=True)
    instr.registry.counter("bundle.crashes").inc(3)
    with instr.tracer.span("fuzz.case"):
        pass
    recorder = flightrec.FlightRecorder(str(tmp_path), obs=instr)
    recorder.record_frame(b"\xaa", context="a->b")
    path = recorder.dump(
        CorpusEntry("fuzz", "ArqData", f"interesting:{outcome}", data, detail=detail)
    )
    assert [r.kind for r in records.read(path)] == ["entry", "frame", "metrics", "span"]
    assert conformance(["--replay", path]) == 0
    assert "replayed 1 corpus entry" in capsys.readouterr().out
    assert conformance(["--triage", path]) == 0
    assert "REPRODUCED" in capsys.readouterr().out
    assert obs_cli(["report", path]) == 0
    out = capsys.readouterr().out
    assert "bundle.crashes" in out and "fuzz.case" in out
