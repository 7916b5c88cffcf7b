"""Tests of the sharded multi-process campaign: byte-identity with the
serial runner, chaos-kill recovery, wedged-worker detection, degraded
shards, and the supervisor-SIGKILL + CLI-resume smoke test."""

from __future__ import annotations

import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    CampaignSupervisor,
    render_campaign_report,
    worker_config,
)

LIMIT = 8

BASE = dict(limit=LIMIT, heartbeat_interval=0.2, restart_backoff=0.05)


@pytest.fixture(scope="module")
def serial_reference(ctx, catalog, pool, tmp_path_factory):
    """The serial run every sharded variant must reproduce exactly."""
    path = tmp_path_factory.mktemp("supervisor") / "serial.sqlite"
    journal = CampaignJournal(path)
    try:
        runner = CampaignRunner(
            ctx, catalog, pool, journal, CampaignConfig(**BASE)
        )
        result = runner.run("fleet")
    finally:
        journal.close()
    return result, render_campaign_report(result)


@pytest.fixture(scope="module")
def module_ids(catalog):
    return [module.module_id for module in catalog]


def _event_kinds(db, campaign_id):
    journal = CampaignJournal(db)
    try:
        return [e["kind"] for e in journal.events(campaign_id)]
    finally:
        journal.close()


class TestShardedRun:
    def test_sharded_report_is_byte_identical_to_serial(
        self, tmp_path, module_ids, serial_reference
    ):
        reference, rendered = serial_reference
        supervisor = CampaignSupervisor(
            tmp_path / "sharded.sqlite",
            module_ids,
            CampaignConfig(**BASE, workers=3),
        )
        result = supervisor.run("fleet")
        assert result.status == "complete"
        assert result.digest() == reference.digest()
        assert render_campaign_report(result) == rendered
        kinds = _event_kinds(tmp_path / "sharded.sqlite", "fleet")
        assert kinds.count("spawn") == 3
        assert kinds.count("shard-done") == 3
        assert "crash" not in kinds

    def test_rerun_of_existing_campaign_raises(self, tmp_path, module_ids):
        config = CampaignConfig(**BASE, workers=2)
        db = tmp_path / "dup.sqlite"
        CampaignSupervisor(db, module_ids, config).run("dup")
        with pytest.raises(ValueError):
            CampaignSupervisor(db, module_ids, config).run("dup")

    def test_chaos_kill_recovers_to_identical_report(
        self, tmp_path, module_ids, serial_reference
    ):
        """Every first-attempt worker is SIGKILLed mid-shard; the
        restarted workers resume their shard journals and the merged
        report still matches the serial run byte for byte."""
        reference, rendered = serial_reference
        db = tmp_path / "chaos.sqlite"
        supervisor = CampaignSupervisor(
            db,
            module_ids,
            CampaignConfig(**BASE, workers=2, chaos_kill_at=2),
        )
        result = supervisor.run("fleet")
        assert result.status == "complete"
        assert result.digest() == reference.digest()
        assert render_campaign_report(result) == rendered
        kinds = _event_kinds(db, "fleet")
        assert kinds.count("crash") >= 2  # both first attempts died
        assert kinds.count("restart") >= 2
        assert "shard-reassign" in kinds
        assert "shard-degraded" not in kinds

    def test_exhausted_restart_budget_degrades_the_shard(
        self, tmp_path, module_ids
    ):
        """With a zero restart budget, a chaos-killed shard is declared
        degraded and its modules are journaled skipped — the campaign
        finishes degraded instead of looping."""
        db = tmp_path / "degraded.sqlite"
        supervisor = CampaignSupervisor(
            db,
            module_ids,
            CampaignConfig(**BASE, workers=2, chaos_kill_at=1, max_restarts=0),
        )
        result = supervisor.run("fleet")
        assert result.status == "degraded"
        assert result.skipped  # every unfinished module accounted for
        assert all("degraded" in detail for detail in result.skipped.values())
        assert len(result.reports) + len(result.skipped) == LIMIT
        kinds = _event_kinds(db, "fleet")
        assert kinds.count("shard-degraded") == 2

    def test_stalled_heartbeat_is_detected_and_killed(
        self, tmp_path, module_ids, serial_reference
    ):
        """A worker that wedges (alive but mute) trips the heartbeat
        timeout, is killed, and its replacement completes the shard."""
        reference, rendered = serial_reference
        db = tmp_path / "stall.sqlite"
        supervisor = CampaignSupervisor(
            db,
            module_ids,
            CampaignConfig(
                **BASE,
                workers=2,
                latency_ms=900.0,
                heartbeat_timeout=2.0,
                chaos_stall_after=1,
            ),
        )
        result = supervisor.run("fleet")
        assert result.status == "complete"
        assert result.digest() == reference.digest()
        kinds = _event_kinds(db, "fleet")
        assert "heartbeat-miss" in kinds
        assert kinds.count("shard-done") >= 2


class TestWorkerConfig:
    def test_worker_view_collapses_sharding_and_baseline(self):
        config = CampaignConfig(
            limit=5, workers=4, baseline="b0", chaos_kill_at=3
        )
        armed = worker_config(config, chaos_armed=True)
        assert armed.workers == 1
        assert armed.limit is None
        assert armed.baseline == ""
        assert armed.chaos_kill_at == 3

    def test_unarmed_worker_strips_chaos(self):
        config = CampaignConfig(
            workers=2, chaos_kill_at=3, chaos_kill_rate=0.5, chaos_stall_after=1
        )
        disarmed = worker_config(config, chaos_armed=False)
        assert disarmed.chaos_kill_at == 0
        assert disarmed.chaos_kill_rate == 0.0
        assert disarmed.chaos_stall_after == 0


# ----------------------------------------------------------------------
# The supervisor SIGKILL smoke test (ISSUE acceptance): kill the whole
# fleet's parent mid-campaign, resume from the surviving journals, and
# demand the serial run's bytes.
# ----------------------------------------------------------------------
def _cli_env(root):
    return {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}


def _cli(*args):
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        cwd=root,
        env=_cli_env(root),
        timeout=300,
    )


def _shard_done_count(db, n_shards):
    done = 0
    for shard in range(n_shards):
        path = Path(f"{db}.shard-{shard:02d}")
        if not path.exists():
            continue
        try:
            done += sqlite3.connect(path).execute(
                "SELECT COUNT(*) FROM campaign_entries WHERE status = 'done'"
            ).fetchone()[0]
        except sqlite3.OperationalError:
            pass  # schema not committed yet
    return done


def test_supervisor_sigkill_then_cli_resume_matches_serial_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    db = tmp_path / "killed.sqlite"
    flags = ["--limit", "10", "--latency-ms", "40", "--workers", "3",
             "--heartbeat-interval", "0.2", "--restart-backoff", "0.05"]
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", "run", "smoke",
         "--db", str(db), *flags],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        cwd=root,
        env=_cli_env(root),
    )
    try:
        # Wait until the shard journals show real progress, then SIGKILL
        # the supervisor process itself.
        deadline = time.time() + 120
        while time.time() < deadline:
            if _shard_done_count(db, 3) >= 2 or victim.poll() is not None:
                break
            time.sleep(0.02)
        else:
            pytest.fail("sharded campaign never journaled progress")
    finally:
        victim.kill()  # SIGKILL the supervisor; workers are orphaned
        victim.wait()

    resumed = _cli("campaign", "resume", "smoke", "--db", str(db))
    assert resumed.returncode == 0, resumed.stderr
    reference = _cli(
        "campaign", "run", "smoke",
        "--db", str(tmp_path / "reference.sqlite"),
        "--limit", "10", "--latency-ms", "40",
    )
    assert reference.returncode == 0, reference.stderr
    assert resumed.stdout == reference.stdout  # byte-identical report
    assert "status: complete" in resumed.stdout

    # The worker fleet reconstructs post-mortem from the journals alone.
    fleet = _cli("campaign", "workers", "smoke", "--db", str(db))
    assert fleet.returncode == 0, fleet.stderr
    assert "EVENTS" in fleet.stdout
    assert "spawn" in fleet.stdout

    gauges = _cli("campaign", "workers", "smoke", "--db", str(db),
                  "--prometheus")
    assert gauges.returncode == 0, gauges.stderr
    assert "repro_campaign_worker_up{" in gauges.stdout
    assert "repro_campaign_worker_restarts_total{" in gauges.stdout


def test_cli_workers_rejects_serial_campaigns(tmp_path):
    db = tmp_path / "serial.sqlite"
    run = _cli("campaign", "run", "serial", "--db", str(db), "--limit", "2")
    assert run.returncode == 0, run.stderr
    fleet = _cli("campaign", "workers", "serial", "--db", str(db))
    assert fleet.returncode == 2
    assert "not sharded" in fleet.stderr


def test_cli_status_flags_journals_with_no_rows(tmp_path):
    db = tmp_path / "empty.sqlite"
    journal = CampaignJournal(db)
    try:
        journal.create("fresh", 2014, ["m1", "m2"], {})
    finally:
        journal.close()
    status = _cli("campaign", "status", "--db", str(db))
    assert status.returncode == 0, status.stderr
    assert "(no results journaled yet)" in status.stdout
