"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import hygiene as hygiene_module
from perfbench import layers
from perfbench import run as run_module
from perfbench import workloads
from perfbench.hygiene import Hygiene, child_processes
from perfbench.stats import quantile, tail

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SERVE_NAMES = {
    "setup_s": "s",
    "p50_ms.r12": "ms",
    "tail_ms.r12": "ms",
    "p50_ms.r24": "ms",
    "tail_ms.r24": "ms",
    "max_rate_rps": "req/s",
    "fail_share": "ratio",
}
CAMPAIGN_NAMES = {
    "setup_s": "s",
    "fail_share": "ratio",
    "modules_per_s": "modules/s",
    "campaign_p50_s": "s",
    "campaign_tail_s": "s",
}


def bench(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def printed_units(stdout: str) -> "dict[str, str]":
    """``name -> unit`` of every figure line the run printed."""
    units = {}
    for line in stdout.splitlines()[:-1]:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            units[fields[0]] = fields[2]
    return units


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    units = printed_units(done.stdout)
    if trace == "0":
        kind = workloads.WORKLOADS[workload].kind
        expected = SERVE_NAMES if kind == "serve" else CAMPAIGN_NAMES
        for name, unit in expected.items():
            assert units.get(name) == unit, name
    for name, metric in result["metrics"].items():
        assert units.get(name) == metric["unit"], name
    assert "# fingerprint " in done.stdout


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Failures are counted
# ----------------------------------------------------------------------
@pytest.fixture
def fast_setups(monkeypatch):
    monkeypatch.setattr(workloads, "SETUPS", 2)


def break_service(monkeypatch, verb, broken):
    """Replace ``service.<verb>`` with ``broken(honest)`` once each
    server's set-up (and so its warm-up) is done."""
    build = workloads.build_server

    def breaking_build(*args, **kwargs):
        server = build(*args, **kwargs)
        setattr(server.service, verb, broken(getattr(server.service, verb)))
        return server

    monkeypatch.setattr(workloads, "build_server", breaking_build)


def serve_once(tmp_path, workload, seconds=1.0):
    hygiene = Hygiene(tmp_path / "tmp")
    try:
        return workloads.run(
            workloads.WORKLOADS[workload], 5, seconds, False, hygiene
        )
    finally:
        assert hygiene.close() == []


def test_corrupted_body_counts_in_fail_share(tmp_path, monkeypatch, fast_setups):
    def corrupt(honest):
        def generate(module_id):
            payload = honest(module_id)
            payload["report"]["examples"] = payload["report"]["examples"][1:] + [{}]
            return payload
        return generate

    break_service(monkeypatch, "generate", corrupt)
    result = serve_once(tmp_path, "serve-cold")
    assert result.attempted > 0
    assert result.failures == {"wrong": result.attempted}
    assert not result.correct
    shares = {name: value for name, value, _unit, _ in result.report}
    assert shares["fail_share"] == 1.0


def test_a_route_answering_500_makes_the_run_incorrect(
    tmp_path, monkeypatch, fast_setups
):
    def fail(_honest):
        def match(module_id):
            raise RuntimeError("match is broken")
        return match

    break_service(monkeypatch, "match", fail)
    result = serve_once(tmp_path, "serve-hot", seconds=2.0)
    assert result.failures["status"] > 0
    assert set(result.failures) == {"status"}
    assert result.failed < result.attempted
    assert not result.correct


def test_wrong_digest_counts_in_fail_share(tmp_path, monkeypatch, fast_setups):
    monkeypatch.setattr(
        workloads, "reference_digest", lambda catalog, config: "0" * 64
    )
    hygiene = Hygiene(tmp_path / "tmp")
    try:
        result = workloads.run(
            workloads.WORKLOADS["campaign-serial"], 5, 0.3, False, hygiene
        )
    finally:
        assert hygiene.close() == []
    assert result.attempted > 0
    assert result.failures == {"digest": result.attempted}
    assert not result.correct
    shares = {name: value for name, value, _unit, _ in result.report}
    assert shares["fail_share"] == 1.0


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------
@pytest.fixture
def short_grace(monkeypatch):
    monkeypatch.setattr(hygiene_module, "THREAD_GRACE_S", 0.1)


def test_hygiene_catches_a_leaked_child_process(tmp_path, short_grace):
    hygiene = Hygiene(tmp_path / "tmp")
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        problems = hygiene.close()
    finally:
        child.kill()
        child.wait()
    assert any(f"pid {child.pid}" in problem for problem in problems)
    assert child.pid not in dict(child_processes())


def test_hygiene_catches_an_unreaped_child(tmp_path, short_grace):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    try:
        deadline = time.monotonic() + 10
        while dict(child_processes()).get(child.pid) != "Z":
            assert time.monotonic() < deadline, "child never exited"
            time.sleep(0.01)
        problems = Hygiene(tmp_path / "tmp").close()
    finally:
        child.wait()
    assert any(f"pid {child.pid} (state Z)" in problem for problem in problems)


def test_hygiene_catches_a_leaked_thread(tmp_path, short_grace):
    hygiene = Hygiene(tmp_path / "tmp")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="leaky", daemon=True)
    thread.start()
    try:
        problems = hygiene.close()
    finally:
        release.set()
        thread.join(5)
    assert "thread still alive: leaky" in problems
    assert not thread.is_alive()


def test_a_leak_fails_the_command(monkeypatch, capsys):
    children = []

    def leaking_run(*args, **kwargs):
        children.append(subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        ))
        return workloads.Result(attempted=1)

    monkeypatch.setattr(workloads, "run", leaking_run)
    try:
        status = run_module.main([
            "--workload", "campaign-serial", "--seed", "1", "--seconds", "1",
        ])
    finally:
        for child in children:
            child.kill()
            child.wait()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, run_module.DEFERRED_SIGNALS)
        for signum in run_module.DEFERRED_SIGNALS:
            signal.signal(signum, signal.default_int_handler
                          if signum == signal.SIGINT else signal.SIG_DFL)
    assert status == 3
    assert capsys.readouterr().out == ""


def test_an_interrupted_run_releases_everything():
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    tmp = ROOT / ".perfbench_tmp" / f"run-{process.pid}"
    deadline = time.monotonic() + 60
    while not tmp.exists():
        assert process.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    time.sleep(6.0)  # past the set-ups, into the ladder
    process.send_signal(signal.SIGINT)
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 4, stderr
    assert "interrupted" in stderr and "leaked" not in stderr
    assert stdout == ""
    assert not tmp.exists()


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
COUNTS = (
    "state.reads_per_req",
    "state.writes_per_req",
    "engine.invocations_per_req",
    "engine.invocations_per_module",
)


@pytest.mark.parametrize("workload", ["serve-hot", "serve-cold", "campaign-serial"])
def test_traced_counts_repeat_for_a_seed(tmp_path, workload):
    counts = []
    for attempt in range(2):
        hygiene = Hygiene(tmp_path / f"tmp{attempt}")
        try:
            result = workloads.run(
                workloads.WORKLOADS[workload], 11, 1.0, True, hygiene
            )
        finally:
            assert hygiene.close() == []
        assert result.problems == []
        assert abs(result.metrics["trace.attributed"][0] - 1.0) <= 0.10
        counts.append({name: result.metrics[name][0] for name in COUNTS})
    assert counts[0] == counts[1]


def test_a_missing_layer_wrapper_makes_the_traced_run_incorrect(
    tmp_path, monkeypatch, fast_setups
):
    wrap = layers.LayerRecorder.wrap

    def wrap_all_but_commit(recorder, owner, attr, name):
        if name != "journal.commit":
            wrap(recorder, owner, attr, name)

    monkeypatch.setattr(layers.LayerRecorder, "wrap", wrap_all_but_commit)
    hygiene = Hygiene(tmp_path / "tmp")
    try:
        result = workloads.run(
            workloads.WORKLOADS["campaign-serial"], 11, 1.0, True, hygiene
        )
    finally:
        assert hygiene.close() == []
    assert result.failed == 0
    assert result.metrics["trace.attributed"][0] < 0.9
    assert not result.correct


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0)
    assert tail(values[:5]) == (5, 100.0)


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert quantile(values, 0.25) == 25
    assert quantile(values[:3], 0.25) == 1
