"""``benchmarks/conftest.py`` merges bench snapshots into ``BENCH_obs.json``.

Running part of ``benchmarks/`` must refresh only the entries of the
benches that ran; the committed file keeps every other entry.
"""

import importlib.util
import json
import pathlib

_CONFTEST = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partial_run_replaces_only_the_benches_that_ran(tmp_path):
    conftest = _bench_conftest()
    path = str(tmp_path / "BENCH_obs.json")
    conftest.merge_snapshots(path, {"a": {"metrics": 1}, "b": {"metrics": 2}}, compact=True)
    conftest.merge_snapshots(path, {"b": {"metrics": 3}}, compact=True)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload == {
        "schema": conftest.OBS_SCHEMA,
        "compact": True,
        "benchmarks": {"a": {"metrics": 1}, "b": {"metrics": 3}},
    }


def test_a_file_of_another_form_is_replaced(tmp_path):
    conftest = _bench_conftest()
    path = tmp_path / "BENCH_obs.json"
    for previous in (
        {"schema": conftest.OBS_SCHEMA, "compact": False, "benchmarks": {"a": {}}},
        {"schema": "repro.obs/bench-snapshots/v1", "compact": True, "benchmarks": {"a": {}}},
        ["not", "a", "snapshot", "file"],
    ):
        path.write_text(json.dumps(previous), encoding="utf-8")
        conftest.merge_snapshots(str(path), {"b": {"metrics": 1}}, compact=True)
        assert json.loads(path.read_text(encoding="utf-8"))["benchmarks"] == {
            "b": {"metrics": 1}
        }
    path.write_text("{truncated", encoding="utf-8")
    conftest.merge_snapshots(str(path), {"b": {"metrics": 1}}, compact=True)
    assert json.loads(path.read_text(encoding="utf-8"))["benchmarks"] == {"b": {"metrics": 1}}
