"""BENCHMARK.json grammar and limits, and that runs emit exactly its metrics."""

import copy

import pytest

from bench import spec
from bench.run import WORKLOADS, result


@pytest.fixture(scope="module")
def doc():
    return spec.load()


def test_benchmark_json_is_valid(doc):
    assert spec.validate(doc) == []
    assert doc["command"] == spec.COMMAND
    assert doc["paths"] == spec.PATHS


def test_benchmark_json_is_the_generated_document(doc):
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    demoted = [n for n, _, _ in spec.END_TO_END if n not in bounds]
    assert doc == spec.document(WORKLOADS, bounds, demoted)


def test_workloads_are_the_registry(doc):
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_setup_has_the_largest_bound(doc):
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
def test_result_emits_exactly_the_listed_metrics(doc, trace):
    run = spec.Run("arq_small", samples={"ops_per_s": [1.0, 2.0, 3.0]}, attempted=3)
    line = result(run, trace, doc)
    section = doc["per_layer"] if trace else doc["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    units = spec.all_units()
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]


def test_every_metric_is_listed_once(doc):
    listed = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert sorted(listed) == sorted(spec.all_units())


def _broken(doc, change):
    bad = copy.deepcopy(doc)
    change(bad)
    return spec.validate(bad)


def test_workload_count_limits(doc):
    assert _broken(doc, lambda d: d.__setitem__("workloads", d["workloads"][:1]))
    nine = [{"name": f"w{i}", "why": "x"} for i in range(9)]
    assert _broken(doc, lambda d: d.__setitem__("workloads", nine))
    eight = [{"name": f"w{i}", "why": "x"} for i in range(8)]
    assert not _broken(doc, lambda d: d.__setitem__("workloads", eight))


def test_metric_count_limits(doc):
    extra = [
        {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1} for i in range(16)
    ]
    assert _broken(doc, lambda d: d["end_to_end"].extend(extra))
    layered = [{"name": f"l{i}", "unit": "s", "better": "lower"} for i in range(129)]
    assert _broken(doc, lambda d: d.__setitem__("per_layer", layered))
    assert not _broken(doc, lambda d: d.__setitem__("per_layer", layered[:128]))


@pytest.mark.parametrize(
    "name", ["", "_lead", "-lead", "has space", "x" * 65, "slash/name", "ünï"]
)
def test_bad_names_are_refused(doc, name):
    assert _broken(doc, lambda d: d["workloads"][0].__setitem__("name", name))


@pytest.mark.parametrize("name", ["a", "0lead", "a.b-c_d", "x" * 64])
def test_good_names_pass(doc, name):
    assert not _broken(doc, lambda d: d["workloads"][0].__setitem__("name", name))


def test_other_refusals(doc):
    def rename_metric(d):
        d["per_layer"][0]["name"] = d["end_to_end"][0]["name"]

    assert _broken(doc, rename_metric)  # a name used twice
    assert _broken(doc, lambda d: d["end_to_end"][0].__setitem__("bound", 0.3))
    assert _broken(doc, lambda d: d["end_to_end"][0].__setitem__("unit", "x" * 17))
    assert _broken(doc, lambda d: d["workloads"][0].__setitem__("why", "a\nb"))
    assert _broken(doc, lambda d: d["paths"].append("../out"))
    assert _broken(doc, lambda d: d.__setitem__("run_seconds", 61))
    assert _broken(doc, lambda d: d.__setitem__("extra", 1))
    assert _broken(
        doc,
        lambda d: d.__setitem__(
            "end_to_end", [m for m in d["end_to_end"] if m["name"] != "setup_s"]
        ),
    )
