"""Tiny runs of every workload, traced, and the payload-dropping mutation."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import ROOT
from bench import run as bench_run
from bench import serve_load, spec
from bench.run import run_workload

TINY = {
    "arq_small": {"messages": 30, "warmup": 10, "traced_messages": 20},
    "sliding_bulk": {"messages": 30, "warmup": 10, "traced_messages": 20},
    "handshake_churn": {"sessions": 16, "trial_seconds": 0.05, "traced_seconds": 0.05},
    "megasim_olsr": {"machines": 2000, "epochs": 3},
}

SERVE_ONLY = ("serve.", "core.", "proc.server.")


def _computed(run):
    return set(run.samples) | set(run.layers)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run(name):
    run = run_workload(name, seed=5, seconds=0, trace=True, **TINY[name])
    assert run.correct, run.problems
    assert run.failed == 0 and run.attempted > 0
    for metric, _, _ in spec.END_TO_END:
        assert run.samples[metric], metric
        assert min(run.samples[metric]) > 0, metric
    layers = spec.per_layer_metrics()
    if name == "megasim_olsr":
        mine = {m for m in layers if not m.startswith(SERVE_ONLY)}
    else:
        mine = {m for m in layers if not m.startswith("megasim.")}
    assert mine <= _computed(run)
    assert run.layers["trace_overhead"] > 0
    assert len(run.tables) == (1 if name == "megasim_olsr" else 2)


def test_trial_count_and_serve_checks():
    run = run_workload("arq_small", seed=2, seconds=0, trace=False, **TINY["arq_small"])
    assert len(run.samples["ops_per_s"]) == serve_load.MIN_TRIALS
    assert len(run.samples["setup_s"]) == serve_load.SETUP_SPAWNS
    assert run.layers["serve.client.retransmit_ratio"] == 0.0
    assert 0 < run.layers["proc.server.cpu_busy"] <= 1.5


def test_handshake_churn_sheds_one_session_per_accept():
    run = run_workload(
        "handshake_churn", seed=1, seconds=0, trace=False, **TINY["handshake_churn"]
    )
    assert run.correct, run.problems
    assert run.layers["serve.manager.sheds"] == 1.0


def test_a_dropped_payload_fails_the_run(monkeypatch, capsys):
    from bench.__main__ import main

    real = bench_run.run_workload

    def faulty(name, **kw):
        return real(
            name,
            server_module="bench.tests.faulty_server",
            **TINY[name],
            **kw,
        )

    monkeypatch.setattr(bench_run, "run_workload", faulty)
    status = main(["--workload", "arq_small", "--seconds", "0", "--seed", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert status != 0
    last = json.loads(out[-1])
    assert last["correct"] is False
    assert any("CRC32" in line for line in out)


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_idle_spinner_exits_when_its_parent_is_killed():
    script = (
        "import subprocess, sys\n"
        "from bench import use_src\n"
        "use_src()\n"
        "from bench.serve_load import idle_spinner_argv\n"
        "print(subprocess.Popen(idle_spinner_argv()).pid, flush=True)\n"
        "sys.stdin.read()\n"
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", script],
        cwd=str(ROOT),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    spinner = int(parent.stdout.readline())
    assert _running(spinner)
    parent.kill()
    parent.wait()
    parent.stdin.close()
    parent.stdout.close()
    deadline = time.monotonic() + 10
    while _running(spinner) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(spinner)
