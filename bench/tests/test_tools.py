"""Calibration, comparison verdicts, order statistics, source addresses."""

import ipaddress
import itertools
import json

import pytest

from bench import spec, stats, tools
from bench.serve_load import AckClock, source_addresses


def test_quartiles_follow_statistics_quantiles():
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, q2, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.5) == 50.0
    assert stats.percentile(values, 0.99) == 99.0
    assert stats.percentile([7.0], 0.99) == 7.0


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        ([100, 101, 102, 100, 101], [80, 81, 80, 82, 81], "lower", "better"),
        ([100, 101, 102, 100, 101], [80, 81, 80, 82, 81], "higher", "worse"),
        ([100, 101, 102, 100, 101], [102, 103, 101, 102, 103], "lower", "within bound"),
        ([100, 140, 70, 120, 90], [104, 150, 75, 118, 95], "lower", "unresolved"),
    ],
)
def test_judge(parent, change, better, verdict):
    assert tools.judge(parent, change, better, 0.05) == verdict


def test_wide_spread_resolves_when_every_change_run_wins():
    parent = [100.0, 140.0, 70.0, 120.0, 90.0]
    change = [200.0, 210.0, 190.0, 220.0, 205.0]
    assert tools.judge(parent, change, "higher", 0.05) == "better"


def test_wide_spread_resolves_when_every_change_run_loses():
    parent = [100.0, 140.0, 70.0, 120.0, 90.0]
    change = [200.0, 210.0, 190.0, 220.0, 205.0]
    assert tools.judge(parent, change, "lower", 0.25) == "worse"
    # Every run trails, but by less than the bound: still unresolved.
    close = [141.0, 145.0, 150.0, 142.0, 143.0]
    assert tools.judge(parent, close, "lower", 0.45) == "unresolved"


def _write(path, per_workload):
    path.write_text(json.dumps(_recorded(per_workload)))
    return str(path)


@pytest.mark.parametrize(
    "change, status",
    [
        ([100.0, 101.0, 102.0, 100.0, 101.0], 0),
        ([60.0, 61.0, 62.0, 60.0, 61.0], 1),
        ([100.0, 140.0, 70.0, 120.0, 90.0], 2),
    ],
)
def test_compare_exit_status(tmp_path, capsys, change, status):
    doc = spec.load()
    steady = {name: 100.0 for name, _, _ in spec.END_TO_END}
    parent = [dict(steady, ops_per_s=v) for v in (100.0, 101.0, 102.0, 100.0, 101.0)]
    changed = [dict(steady, ops_per_s=v) for v in change]
    a = _write(tmp_path / "a.json", {"w": parent})
    b = _write(tmp_path / "b.json", {"w": changed})
    assert tools.compare_files(a, b, doc) == status
    out = capsys.readouterr().out
    assert ("unresolved" in out.splitlines()[-1]) == (status == 2)


def _recorded(per_workload):
    return {
        "seconds": 1,
        "runs": {
            w: [{"returncode": 0, "correct": True, "metrics": m} for m in runs]
            for w, runs in per_workload.items()
        },
    }


def test_bounds_from_recorded_spread():
    doc = spec.load()
    steady = {name: 100.0 for name, _, _ in spec.END_TO_END}
    runs = [dict(steady) for _ in range(5)]
    for index, run in enumerate(runs):
        run["ops_per_s"] = 100.0 + index  # spread 3/102 -> bound 0.09
        run["latency_p99_us"] = 100.0 * (1 + 0.2 * index)  # spread 0.43: demoted
    bounds, demoted, spreads = tools.bounds_from(_recorded({"w": runs}), doc)
    assert spreads["ops_per_s"]["w"] == pytest.approx(3 / 102)
    assert bounds["ops_per_s"] == pytest.approx(0.09)
    assert bounds["latency_p50_us"] == tools.FLOOR
    assert bounds["setup_s"] == max(bounds.values())
    assert demoted == ["latency_p99_us"]
    assert "latency_p99_us" not in bounds
    new = spec.document({"w": "why", "v": "why"}, bounds, demoted)
    assert spec.validate(new) == []
    assert "latency_p99_us" in [m["name"] for m in new["per_layer"]]


def test_source_addresses_never_repeat():
    addresses = list(itertools.islice(source_addresses(3), 70_000))
    assert len(set(addresses)) == len(addresses)
    for text in addresses[:: 997]:
        address = ipaddress.ip_address(text)
        assert address in ipaddress.ip_network("127.0.0.0/8")
        assert text != "127.0.0.1"
    assert list(itertools.islice(source_addresses(3), 5)) == addresses[:5]
    assert next(source_addresses(4)) != addresses[0]


def test_ack_clock_skips_retransmitted_sequence_numbers():
    clock = AckClock(lambda f: f[0], lambda f: f[0])
    clock.sent(0.0, b"\x01")
    clock.sent(1.0, b"\x02")
    clock.sent(2.0, b"\x02")  # a retransmission
    clock.received(3.0, b"\x01")
    clock.received(4.0, b"\x02")
    clock.received(5.0, b"\x01")  # a duplicate ack
    assert clock.rtts == [3.0]
