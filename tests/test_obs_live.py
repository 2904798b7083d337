"""``repro.obs.live``: streaming telemetry, exporters, flight recorder.

The contracts under test:

* delta snapshots reconstruct the source registry exactly (merge of all
  deltas == full snapshot), across registry resets and worker respawns;
* ``MetricsRegistry.merge_snapshot`` validates before applying — a bad
  snapshot raises :class:`MergeError` and the registry is untouched;
* the exporter plane (Prometheus text, JSONL sinks, localhost server)
  publishes self-contained cumulative payloads, and stays entirely off
  (``None``) when ``REPRO_OBS_EXPORT`` names no target;
* a sharded conformance run with exports on produces merged counters
  byte-identical to the serial run — the live plane is advisory;
* an undeclared fuzzer failure with ``REPRO_OBS_FLIGHTREC`` armed dumps
  a bundle that replays deterministically to the same failure.
"""

import json
import os
import queue
import random
import socket
import threading

import pytest

from repro import obs
from repro.conformance.corpus import Corpus
from repro.conformance.coverage import CoverageMap
from repro.conformance.mutate import BUG_NONVERBATIM, MutationFuzzer, classify
from repro.conformance.registry import SpecEntry
from repro.conformance.runner import run_all
from repro.core.fields import Bytes, UInt
from repro.core.packet import PacketSpec
from repro.core.symbolic import this
from repro.obs import MergeError, MetricsRegistry
from repro.obs.live import flightrec
from repro.obs.live.delta import DeltaTracker
from repro.obs.live.expose import Exporter, JsonlSink, MetricsServer, prometheus_text
from repro.obs.live.stream import LiveAggregator, TelemetryStreamer, stream_interval
from repro.obs.live.top import load_export, render_frame, render_rates
from repro.parallel.confrun import run_all_parallel
from repro.testing import random_packet


@pytest.fixture(autouse=True)
def _clean_plane():
    """No leaked process obs state or armed recorder."""
    flightrec.install_recorder(None)
    yield
    flightrec.reset_env_cache()
    obs.get_default().reset()
    obs.disable()


def _counters(registry):
    return {
        (name, tuple(sorted(entry["labels"].items()))): entry["value"]
        for name, entries in registry.snapshot().items()
        for entry in entries
        if entry["kind"] == "counter" and entry["value"]
    }


# -- delta snapshots -----------------------------------------------------


class TestDeltaTracker:
    def test_merged_deltas_reconstruct_source_registry(self):
        source, mirror = MetricsRegistry(), MetricsRegistry()
        tracker = DeltaTracker(source)
        source.counter("frames", proto="tcp").inc(3)
        source.gauge("depth").set(7)
        source.histogram("lat", bounds=[1, 10]).observe(5)
        mirror.merge_snapshot(tracker.delta_snapshot())
        source.counter("frames", proto="tcp").inc(4)
        source.counter("frames", proto="udp").inc(1)
        source.gauge("depth").set(2)
        source.histogram("lat", bounds=[1, 10]).observe(0.5)
        source.histogram("lat", bounds=[1, 10]).observe(40)
        mirror.merge_snapshot(tracker.delta_snapshot())
        assert mirror.snapshot() == source.snapshot()

    def test_idle_tick_is_empty(self):
        source = MetricsRegistry()
        tracker = DeltaTracker(source)
        source.counter("c").inc()
        tracker.delta_snapshot()
        assert tracker.delta_snapshot() == {}

    def test_counter_reset_emits_post_reset_value(self):
        # execute_unit zeroes the worker registry between units: the
        # post-reset value is new work, and summed deltas must equal
        # the total across units.
        source, mirror = MetricsRegistry(), MetricsRegistry()
        tracker = DeltaTracker(source)
        source.counter("cases").inc(10)
        mirror.merge_snapshot(tracker.delta_snapshot())
        source.reset()
        source.counter("cases").inc(4)
        mirror.merge_snapshot(tracker.delta_snapshot())
        assert _counters(mirror)[("cases", ())] == 14

    def test_histogram_reset_ships_whole_entry(self):
        source, mirror = MetricsRegistry(), MetricsRegistry()
        tracker = DeltaTracker(source)
        source.histogram("h", bounds=[1, 2]).observe(0.5)
        source.histogram("h", bounds=[1, 2]).observe(1.5)
        mirror.merge_snapshot(tracker.delta_snapshot())
        source.reset()
        source.histogram("h", bounds=[1, 2]).observe(3.0)
        mirror.merge_snapshot(tracker.delta_snapshot())
        merged = mirror.snapshot()["h"][0]
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(5.0)

    def test_vanished_metrics_prune_baseline(self):
        source = MetricsRegistry()
        tracker = DeltaTracker(source)
        source.counter("gone").inc(5)
        tracker.delta_snapshot()
        source.clear()
        assert tracker.delta_snapshot() == {}
        assert tracker._base == {}


# -- merge hardening -----------------------------------------------------


class TestMergeErrors:
    def _histo_entry(self, **overrides):
        entry = {
            "labels": {},
            "kind": "histogram",
            "bounds": [1, 2],
            "bucket_counts": [1, 0, 0],
            "count": 1,
            "sum": 0.5,
            "min": 0.5,
            "max": 0.5,
        }
        entry.update(overrides)
        return entry

    def test_mismatched_bucket_ladder_rejected_registry_untouched(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=[1, 2]).observe(1.5)
        before = registry.snapshot()
        with pytest.raises(MergeError, match="bucket ladder"):
            registry.merge_snapshot({"h": [self._histo_entry(bounds=[1, 3])]})
        assert registry.snapshot() == before

    def test_unknown_kind_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MergeError, match="kind 'summary'"):
            registry.merge_snapshot(
                {"x": [{"labels": {}, "kind": "summary", "value": 1}]}
            )

    def test_kind_collision_against_registry_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(MergeError, match="registry holds a counter"):
            registry.merge_snapshot(
                {"x": [{"labels": {}, "kind": "gauge", "value": 1.0}]}
            )

    def test_kind_collision_within_snapshot_rejected(self):
        registry = MetricsRegistry()
        snapshot = {
            "x": [
                {"labels": {"a": 1}, "kind": "counter", "value": 1},
                {"labels": {"a": 1}, "kind": "gauge", "value": 2.0},
            ]
        }
        with pytest.raises(MergeError, match="both"):
            registry.merge_snapshot(snapshot)
        assert len(registry) == 0

    def test_negative_counter_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MergeError, match="non-negative"):
            registry.merge_snapshot(
                {"c": [{"labels": {}, "kind": "counter", "value": -3}]}
            )

    def test_malformed_shapes_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MergeError):
            registry.merge_snapshot({"c": "not-a-list"})
        with pytest.raises(MergeError):
            registry.merge_snapshot({"c": ["not-a-dict"]})
        with pytest.raises(MergeError):
            registry.merge_snapshot(
                {"c": [{"labels": "nope", "kind": "counter", "value": 1}]}
            )

    def test_excess_bucket_counts_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MergeError, match="bucket counts"):
            registry.merge_snapshot(
                {"h": [self._histo_entry(bucket_counts=[1, 0, 0, 0])]}
            )

    def test_partial_failure_applies_nothing(self):
        # First entry is fine, second is bad: validate-then-apply means
        # even the fine one must not land.
        registry = MetricsRegistry()
        snapshot = {
            "good": [{"labels": {}, "kind": "counter", "value": 5}],
            "bad": [{"labels": {}, "kind": "counter", "value": -1}],
        }
        with pytest.raises(MergeError):
            registry.merge_snapshot(snapshot)
        assert len(registry) == 0


# -- exposition ----------------------------------------------------------


class TestExposition:
    def test_prometheus_text_renders_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("frames.sent", proto="tcp").inc(7)
        registry.gauge("queue.depth").set(3)
        registry.histogram("lat", bounds=[1, 10]).observe(5)
        registry.histogram("lat", bounds=[1, 10]).observe(0.5)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE frames_sent counter" in text
        assert 'frames_sent{proto="tcp"} 7' in text
        assert "queue_depth 3" in text
        # Cumulative buckets: 1 at le=1, 2 at le=10 and +Inf.
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text

    def test_exporter_from_env_disabled_values(self):
        for value in ({}, {"REPRO_OBS_EXPORT": ""}, {"REPRO_OBS_EXPORT": "off"},
                      {"REPRO_OBS_EXPORT": "0"}, {"REPRO_OBS_EXPORT": "none"}):
            assert Exporter.from_env(value) is None

    def test_jsonl_sink_stream_is_self_contained(self, tmp_path):
        path = str(tmp_path / "export.jsonl")
        exporter = Exporter.from_env({"REPRO_OBS_EXPORT": path})
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        exporter.publish(registry.snapshot(), kind="live")
        registry.counter("c").inc(9)
        exporter.publish(registry.snapshot(), kind="final", workers={"0": {}})
        exporter.close()
        payloads = [json.loads(line) for line in open(path)]
        assert [p["seq"] for p in payloads] == [1, 2]
        assert payloads[0]["metrics"]["c"][0]["value"] == 1
        assert payloads[1]["metrics"]["c"][0]["value"] == 10  # cumulative
        assert payloads[1]["kind"] == "final"

    def test_metrics_server_answers_prometheus_and_json(self):
        server = MetricsServer()
        try:
            registry = MetricsRegistry()
            registry.counter("hits").inc(4)
            server.publish({"schema": "x", "metrics": registry.snapshot()})

            def get(path):
                with socket.create_connection(
                    (server.host, server.port), timeout=5
                ) as conn:
                    conn.sendall(
                        f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1")
                    )
                    chunks = []
                    while True:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        chunks.append(chunk)
                return b"".join(chunks).decode("utf-8")

            text = get("/metrics")
            assert "200 OK" in text and "hits 4" in text
            raw = get("/metrics.json")
            body = raw.split("\r\n\r\n", 1)[1]
            assert json.loads(body)["metrics"]["hits"][0]["value"] == 4
            assert "404" in get("/somewhere-else")
        finally:
            server.close()


# -- the worker stream ---------------------------------------------------


class TestTelemetryStream:
    def _streamer(self, index=0, sink=None):
        instr = obs.Instrumentation(enabled=True)
        return (
            TelemetryStreamer(index, sink or queue.Queue(), obs=instr, interval=999),
            instr,
        )

    def test_payload_shape_matches_pool_reply_tuples(self):
        sink = queue.Queue()
        streamer, instr = self._streamer(index=3, sink=sink)
        instr.registry.counter("work").inc(2)
        streamer._tick()
        status, task, worker, payload = sink.get_nowait()
        assert (status, task, worker) == ("obs", 0, 3)
        assert payload["seq"] == 1 and payload["worker"] == 3
        assert payload["metrics"]["work"][0]["value"] == 2

    def test_idle_tick_sends_nothing(self):
        sink = queue.Queue()
        streamer, _ = self._streamer(sink=sink)
        streamer._tick()
        assert sink.empty()

    def test_trace_records_ship_incrementally(self):
        streamer, instr = self._streamer()
        with instr.tracer.span("one"):
            pass
        first = streamer.collect()
        assert [r["name"] for r in first["trace"]] == ["one"]
        with instr.tracer.span("two"):
            pass
        second = streamer.collect()
        assert [r["name"] for r in second["trace"]] == ["two"]

    def test_aggregator_merges_deltas_and_tracks_respawn(self):
        aggregator = LiveAggregator()
        streamer, instr = self._streamer(index=0)
        instr.registry.counter("cases").inc(5)
        aggregator.ingest(streamer.collect())
        # The worker dies; its replacement starts with a fresh registry
        # and a fresh streamer whose sequence restarts at 1.
        respawned, instr2 = self._streamer(index=0)
        instr2.registry.counter("cases").inc(2)
        aggregator.ingest(respawned.collect())
        view = aggregator.snapshot()
        assert view["metrics"]["cases"][0]["value"] == 7
        assert view["workers"]["0"]["restarts"] == 1

    def test_aggregator_drops_malformed_deltas_without_raising(self):
        aggregator = LiveAggregator()
        aggregator.ingest(
            {
                "worker": 0,
                "seq": 1,
                "metrics": {"c": [{"labels": {}, "kind": "counter", "value": -1}]},
                "trace": [],
            }
        )
        assert aggregator.dropped == 1
        assert aggregator.snapshot()["metrics"] == {}

    def test_thread_streams_over_a_real_queue(self):
        sink = queue.Queue()
        instr = obs.Instrumentation(enabled=True)
        streamer = TelemetryStreamer(1, sink, obs=instr, interval=0.02)
        streamer.start()
        instr.registry.counter("ticks").inc(9)
        deadline = threading.Event()
        deadline.wait(0.2)
        streamer.stop()
        total = 0
        while not sink.empty():
            message = sink.get_nowait()
            assert message[0] == "obs"
            for entry in message[3]["metrics"].get("ticks", []):
                total += entry["value"]
        assert total == 9

    def test_stream_interval_env_parsing(self):
        assert stream_interval({}) == 0.25
        assert stream_interval({"REPRO_OBS_INTERVAL": "1.5"}) == 1.5
        assert stream_interval({"REPRO_OBS_INTERVAL": "junk"}) == 0.25
        assert stream_interval({"REPRO_OBS_INTERVAL": "-2"}) == 0.25


# -- parallel equality with the plane on ---------------------------------


class TestParallelEquality:
    @pytest.mark.slow
    def test_sharded_run_with_exports_matches_serial(self, tmp_path, monkeypatch):
        export = str(tmp_path / "live.jsonl")
        instr = obs.enable()
        instr.registry.reset()
        run_all(seed=9, budget=80, engines=("fuzz",))
        serial = _counters(instr.registry)

        instr.registry.reset()
        monkeypatch.setenv("REPRO_OBS_EXPORT", export)  # workers inherit
        exporter = Exporter.from_env()
        run_all_parallel(
            workers=2, seed=9, budget=80, engines=("fuzz",), exporter=exporter
        )
        exporter.close()
        merged = _counters(instr.registry)

        # The authoritative merge is byte-identical with the plane on.
        assert merged == serial
        # ...and the export stream ends with that same final registry.
        payloads = load_export(export)
        finals = [p for p in payloads if p.get("kind") == "final"]
        assert finals
        final_registry = MetricsRegistry()
        final_registry.merge_snapshot(finals[-1]["metrics"])
        assert _counters(final_registry) == serial


# -- flight recorder -----------------------------------------------------


def _broken_spec():
    class LyingUInt(UInt):
        def decode(self, reader, env):
            value = super().decode(reader, env)
            return value ^ 1 if value > 7 else value

    return PacketSpec(
        "FlightRecDemo",
        fields=[
            LyingUInt("seq", bits=8),
            UInt("length", bits=8),
            Bytes("payload", length=this.length),
        ],
    )


class TestFlightRecorder:
    def test_unarmed_hooks_are_noops(self):
        assert flightrec.active_recorder() is None
        assert flightrec.record_crash("fuzz_bug_crash", data=b"x") is None
        flightrec.record_frame(b"x")  # must not raise

    def test_env_arms_the_recorder(self, tmp_path, monkeypatch):
        flightrec.reset_env_cache()
        monkeypatch.setenv("REPRO_OBS_FLIGHTREC", str(tmp_path))
        path = flightrec.record_crash("fuzz_bug_crash", subject="X", data=b"\x01")
        assert path is not None and os.path.dirname(path) == str(tmp_path)

    def test_bundle_round_trip_with_frame_ring(self, tmp_path):
        instr = obs.Instrumentation(enabled=True)
        instr.registry.counter("crashes").inc()
        with instr.tracer.span("fuzz"):
            pass
        recorder = flightrec.FlightRecorder(
            str(tmp_path), frame_capacity=2, obs=instr
        )
        for index in range(4):
            recorder.record_frame(bytes([index]), context=f"ch{index}")
        path = recorder.dump(
            "fuzz_bug_crash",
            subject="Demo",
            detail="boom",
            seed=7,
            data=b"\x01\x02",
            shrunk=b"\x01",
            extra={"engine": "fuzz"},
        )
        bundle = flightrec.load_bundle(path)
        assert bundle.kind == "fuzz_bug_crash"
        assert bundle.seed == 7
        assert bundle.reproducer() == b"\x01"  # shrunk wins
        assert [f["context"] for f in bundle.frames] == ["ch2", "ch3"]  # ring
        assert bundle.metrics["crashes"][0]["value"] == 1
        assert len(bundle.trace) == 1

    def test_fuzzer_crash_dumps_replayable_bundle(self, tmp_path, monkeypatch):
        """The acceptance check: an injected decoder bug must leave a
        bundle whose replay deterministically reproduces the failure."""
        broken = _broken_spec()
        entry = SpecEntry(broken, lambda rng: random_packet(broken, rng))
        flightrec.install_recorder(flightrec.FlightRecorder(str(tmp_path)))
        fuzzer = MutationFuzzer(
            entry, random.Random(0), CoverageMap(), corpus=Corpus(), seed=0
        )
        findings = fuzzer.run(300)
        assert any(f.outcome == BUG_NONVERBATIM for f in findings)
        bundles = [
            flightrec.load_bundle(os.path.join(str(tmp_path), name))
            for name in sorted(os.listdir(str(tmp_path)))
        ]
        nonverbatim = [
            b for b in bundles if b.kind == f"fuzz_{BUG_NONVERBATIM}"
        ]
        assert nonverbatim
        bundle = nonverbatim[0]
        assert bundle.seed == 0
        # Replay needs the spec in the registry; the broken demo spec
        # stands in for a real regression.
        import repro.conformance.registry as registry_module

        monkeypatch.setattr(
            registry_module, "all_spec_entries", lambda: [entry]
        )
        status, detail = flightrec.replay_bundle(bundle)
        assert status == "reproduced", detail
        # Deterministic: the same bundle replays the same way again.
        assert flightrec.replay_bundle(bundle)[0] == "reproduced"
        # And the classification itself is stable on the reproducer.
        assert classify(broken, bundle.reproducer())[0] == BUG_NONVERBATIM

    def test_fixed_bug_replays_as_drifted(self, tmp_path, monkeypatch):
        broken = _broken_spec()
        recorder = flightrec.FlightRecorder(str(tmp_path))
        packet = random_packet(broken, random.Random(0))
        wire = broken.encode(packet)
        path = recorder.dump(
            "fuzz_bug_nonverbatim", subject="FlightRecDemo", data=wire
        )
        # After the fix ships, the registry holds a spec whose decoder
        # no longer lies — replay then finds nothing wrong and reports
        # the drift instead of claiming reproduction.
        fixed = PacketSpec(
            "FlightRecDemo",
            fields=[
                UInt("seq", bits=8),
                UInt("length", bits=8),
                Bytes("payload", length=this.length),
            ],
        )
        fixed_entry = SpecEntry(fixed, lambda rng: random_packet(fixed, rng))
        import repro.conformance.registry as registry_module

        monkeypatch.setattr(
            registry_module, "all_spec_entries", lambda: [fixed_entry]
        )
        status, detail = flightrec.replay_bundle(flightrec.load_bundle(path))
        assert status == "drifted"
        assert "accept" in detail

    def test_operational_bundles_are_unreplayable(self, tmp_path):
        recorder = flightrec.FlightRecorder(str(tmp_path))
        path = recorder.dump("operator_note", detail="worker 1 died")
        status, detail = flightrec.replay_bundle(flightrec.load_bundle(path))
        assert status == "unreplayable"

    def test_demotion_bundle_on_clean_spec_drifts(self, tmp_path):
        # A demotion bundle for a spec whose compiled tier agrees with
        # the interpreter replays clean: no divergence, status drifted.
        from repro.conformance.registry import all_spec_entries

        entry = next(e for e in all_spec_entries() if e.name == "ArqData")
        wire = entry.spec.encode(entry.generate(random.Random(0)))
        recorder = flightrec.FlightRecorder(str(tmp_path))
        path = recorder.dump(
            "fastpath_demotion",
            subject="ArqData",
            detail="decode-mismatch",
            data=wire,
            extra={"op": "decode", "reason": "decode-mismatch"},
        )
        status, detail = flightrec.replay_bundle(flightrec.load_bundle(path))
        assert status == "drifted", detail

    def test_capture_feeds_the_frame_ring(self, tmp_path):
        from repro.netsim import Simulator
        from repro.netsim.capture import Capture
        from repro.netsim.channel import Channel, ChannelConfig

        flightrec.install_recorder(flightrec.FlightRecorder(str(tmp_path)))
        sim = Simulator()
        channel = Channel(
            sim,
            ChannelConfig(),
            random.Random(0),
            deliver=lambda frame: None,
            name="a->b",
        )
        capture = Capture()
        capture.tap(channel)
        channel.send(b"\xaa\xbb")
        sim.run()
        path = flightrec.record_crash("fuzz_bug_crash", subject="X")
        bundle = flightrec.load_bundle(path)
        assert [f["data"] for f in bundle.frames] == ["aabb"]
        assert bundle.frames[0]["context"] == "a->b"


# -- the CLI surfaces ----------------------------------------------------


class TestCli:
    def _export_file(self, tmp_path):
        path = str(tmp_path / "export.jsonl")
        exporter = Exporter([JsonlSink(path)])
        registry = MetricsRegistry()
        registry.counter("frames").inc(5)
        exporter.publish(registry.snapshot(), kind="live")
        registry.counter("frames").inc(15)
        exporter.publish(registry.snapshot(), kind="final")
        return path

    def test_load_export_and_rates(self, tmp_path):
        payloads = load_export(self._export_file(tmp_path))
        assert len(payloads) == 2
        rates = "\n".join(render_rates(payloads[1], payloads[0]))
        assert "frames" in rates and "+      15" in rates
        frame = render_frame(payloads[1], payloads[0])
        assert "kind=final" in frame and "frames" in frame

    def test_report_command_renders_final_payload(self, tmp_path, capfd):
        from repro.obs.__main__ import main

        assert main(["report", self._export_file(tmp_path)]) == 0
        out = capfd.readouterr().out
        assert "frames" in out and "20" in out

    def test_top_no_follow_renders_existing_frames(self, tmp_path, capfd):
        from repro.obs.__main__ import main

        assert main(["top", self._export_file(tmp_path), "--no-follow"]) == 0
        out = capfd.readouterr().out
        assert out.count("repro.obs top") == 2

    def test_report_command_missing_payloads_fails(self, tmp_path):
        from repro.obs.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 1

    def test_conformance_triage_cli(self, tmp_path, capfd):
        from repro.conformance.__main__ import main

        recorder = flightrec.FlightRecorder(str(tmp_path))
        path = recorder.dump("operator_note", detail="pool wedged")
        assert main(["--triage", path]) == 1  # unreplayable != reproduced
        out = capfd.readouterr().out
        assert "UNREPLAYABLE" in out
