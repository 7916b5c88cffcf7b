"""Tests of the shared WAL store's lifecycle records: campaigns and the
serving fleet share one file without seeing each other's events,
heartbeats or spans, and every reader judges replica liveness by the
heartbeat timeout the fleet journaled."""

from __future__ import annotations

import http.client
import time

import pytest

from repro.campaign.journal import CampaignJournal
from repro.cli import main
from repro.obs.aggregate import MetricsAggregator, collect_spans
from repro.serve import FleetConfig, ServeConfig, ServeStateStore, ServeSupervisor
from repro.wal import FLEET_SCOPE, has_fleet_state


def _span(module_id: str) -> dict:
    return {
        "name": "invoke",
        "module_id": module_id,
        "start_ms": 0.0,
        "duration_ms": 1.0,
        "outcome": "ok",
        "attributes": {},
    }


class TestScopes:
    def test_the_fleet_scope_is_not_a_campaign_id(self, tmp_path):
        journal = CampaignJournal(tmp_path / "shared.db")
        try:
            with pytest.raises(ValueError, match="reserved"):
                journal.create(FLEET_SCOPE, 1, ["m"], {})
        finally:
            journal.close()

    def test_fleet_and_campaign_share_a_file_without_colliding(self, tmp_path):
        db = tmp_path / "shared.db"
        journal = CampaignJournal(db)
        store = ServeStateStore(db)
        try:
            journal.create("c", 1, ["m"], {"workers": 1})
            journal.record_event("c", 0, "spawn", "campaign worker")
            journal.record_heartbeat("c", 0, count=3, stats={"who": "shard"})
            journal.record_span("c", _span("campaign-module"))
            store.record_event(FLEET_SCOPE, 0, "spawn", "replica")
            store.record_heartbeat(
                FLEET_SCOPE, 0, count=9, stats={"who": "replica"}
            )
            store.record_span(FLEET_SCOPE, _span("fleet-module"), 0)

            assert [e["detail"] for e in journal.events("c")] == [
                "campaign worker"
            ]
            assert [e["detail"] for e in store.events(FLEET_SCOPE)] == [
                "replica"
            ]
            assert [row["stats"] for row in journal.heartbeats("c")] == [
                {"who": "shard"}
            ]
            assert [row["stats"] for row in store.heartbeats(FLEET_SCOPE)] == [
                {"who": "replica"}
            ]
            assert journal.heartbeat("c", 0)["invocations"] == 3
            assert store.heartbeat(FLEET_SCOPE, 0)["requests_total"] == 9
            assert [s["module_id"] for s in journal.spans("c")] == [
                "campaign-module"
            ]
            assert [s["module_id"] for s in store.spans(FLEET_SCOPE)] == [
                "fleet-module"
            ]
        finally:
            store.close()
            journal.close()
        assert [s.module_id for s in collect_spans(str(db), "c")] == [
            "campaign-module"
        ]
        assert [s.module_id for s in collect_spans(str(db), FLEET_SCOPE)] == [
            "fleet-module"
        ]

    def test_a_campaign_alone_is_no_fleet_state(self, tmp_path):
        db = tmp_path / "campaign.db"
        journal = CampaignJournal(db)
        try:
            journal.create("c", 1, ["m"], {})
            journal.record_heartbeat("c", 0)
        finally:
            journal.close()
        assert not has_fleet_state(str(db))


class TestJournaledHeartbeatTimeout:
    """A replica heartbeat 5 s old under a 2 s fleet timeout is down for
    every reader, not only for the supervisor."""

    def _stale_fleet(self, db) -> None:
        journal = CampaignJournal(db)
        journal.create("c", 1, ["m"], {})
        journal.close()
        store = ServeStateStore(db)
        try:
            store.record_heartbeat(
                FLEET_SCOPE, 0, pid=1, attempt=1, timeout=2.0,
                heartbeat_wall=time.time() - 5.0,
            )
        finally:
            store.close()

    def test_the_fleet_scrape_reports_the_replica_down(self, tmp_path):
        db = tmp_path / "fleet.db"
        self._stale_fleet(db)
        text = MetricsAggregator(state_db=str(db)).to_prometheus()
        assert 'repro_serve_replica_up{replica="0"} 0' in text
        store = ServeStateStore(db)
        try:
            (row,) = MetricsAggregator(state=store).snapshot()["replicas"]
        finally:
            store.close()
        assert row["alive"] is False

    def test_top_reports_the_replica_down(self, tmp_path, capsys):
        db = tmp_path / "fleet.db"
        self._stale_fleet(db)
        assert main(["top", "c", "--db", str(db), "--once"]) == 0
        assert "replicas   0/1 alive" in capsys.readouterr().out

    def test_serve_fleet_override_still_wins(self, tmp_path, capsys):
        db = tmp_path / "fleet.db"
        self._stale_fleet(db)
        assert main(["serve", "fleet", "--db", str(db), "--prometheus"]) == 0
        assert 'repro_serve_replica_up{replica="0"} 0' in capsys.readouterr().out
        assert main([
            "serve", "fleet", "--db", str(db), "--prometheus",
            "--heartbeat-timeout", "10",
        ]) == 0
        assert 'repro_serve_replica_up{replica="0"} 1' in capsys.readouterr().out


def test_replicas_journal_the_fleet_timeout_for_the_fleet_scrape(tmp_path):
    """End to end: the supervisor's own /metrics judges a replica by the
    fleet's --heartbeat-timeout, which the replica journaled."""
    offset = [0.0]
    supervisor = ServeSupervisor(
        ServeConfig(host="127.0.0.1", port=0, state_db=str(tmp_path / "f.db")),
        FleetConfig(
            replicas=1, heartbeat_interval=0.2, heartbeat_timeout=2.0,
            restart_backoff=0.05, metrics_port=0,
        ),
        service={"seed": 2014},
        wall_clock=lambda: time.time() + offset[0],
    ).start()

    def scrape() -> str:
        server = supervisor.metrics_server
        connection = http.client.HTTPConnection(server.host, server.port, timeout=15)
        try:
            connection.request("GET", "/metrics")
            return connection.getresponse().read().decode()
        finally:
            connection.close()

    try:
        deadline = time.time() + 45.0
        while time.time() < deadline:
            supervisor.poll()
            row = supervisor.store.heartbeat(FLEET_SCOPE, 0)
            if row is not None and row["phase"] == "running":
                break
            time.sleep(0.05)
        else:
            pytest.fail("replica never heartbeat")
        assert row["timeout"] == 2.0
        assert 'repro_serve_replica_up{replica="0"} 1' in scrape()
        # Five seconds on, without another supervision pass: stale by
        # the fleet's 2 s timeout, though fresh by the 10 s default.
        offset[0] = 5.0
        assert 'repro_serve_replica_up{replica="0"} 0' in scrape()
    finally:
        offset[0] = 0.0
        supervisor.drain()
        supervisor.close()
