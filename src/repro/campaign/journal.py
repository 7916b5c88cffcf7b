"""The campaign journal: write-ahead persistence of generation results.

A whole-catalog generation run (§3 over the 252-module catalog) is long
enough to die — the process gets killed, the machine reboots, a provider
blackout stalls everything past patience.  The journal makes the run
crash-safe at module granularity: every completed per-module
:class:`~repro.core.generation.GenerationReport` is committed to SQLite
*before* the campaign moves on, so a killed campaign loses at most the
module in flight and ``campaign resume`` completes the remainder.

The storage reuses the conventions of :mod:`repro.registry.sqlite_store`
(same wire serialization for typed values, same one-file SQLite shape);
journal tables can live in the same database file as a persisted
registry without clashing.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field

from repro.core.examples import Binding, DataExample
from repro.core.generation import GenerationReport
from repro.core.quarantine import QuarantinedExample
from repro.modules.interfaces import value_from_wire, value_to_wire
from repro.values import TypedValue
from repro.wal import FLEET_SCOPE, WalStore

#: Journal lifecycle states of one campaign.
RUNNING = "running"
COMPLETE = "complete"
DEGRADED = "degraded"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    seed INTEGER NOT NULL,
    status TEXT NOT NULL CHECK (status IN ('running', 'complete', 'degraded')),
    module_ids_json TEXT NOT NULL,
    config_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_entries (
    campaign_id TEXT NOT NULL REFERENCES campaigns(campaign_id),
    module_id TEXT NOT NULL,
    status TEXT NOT NULL CHECK (status IN ('done', 'skipped')),
    detail TEXT NOT NULL,
    report_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, module_id)
);
CREATE TABLE IF NOT EXISTS campaign_snapshots (
    snap_seq INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL,
    t_ms REAL NOT NULL,
    snapshot_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS campaign_snapshots_by_campaign
    ON campaign_snapshots (campaign_id);
CREATE TABLE IF NOT EXISTS campaign_alerts (
    alert_seq INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL,
    slo TEXT NOT NULL,
    kind TEXT NOT NULL,
    subject TEXT NOT NULL,
    state TEXT NOT NULL CHECK (state IN ('firing', 'resolved')),
    t_ms REAL NOT NULL,
    detail TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS campaign_alerts_by_campaign
    ON campaign_alerts (campaign_id);
CREATE TABLE IF NOT EXISTS match_signatures (
    campaign_id TEXT NOT NULL,
    module_id TEXT NOT NULL,
    signature_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, module_id)
);
"""


# ----------------------------------------------------------------------
# GenerationReport <-> JSON
# ----------------------------------------------------------------------
def _binding_to_dict(binding: Binding) -> dict:
    return {
        "parameter": binding.parameter,
        "partition": binding.partition,
        "value": value_to_wire(binding.value),
    }


def _binding_from_dict(data: dict) -> Binding:
    return Binding(
        parameter=data["parameter"],
        value=value_from_wire(data["value"]),
        partition=data["partition"],
    )


def report_to_dict(report: GenerationReport) -> dict:
    """Serialize a generation report to a JSON-compatible dict.

    The full report round-trips — examples, per-partition selections,
    unrealized partitions and both failure counters — so a resumed
    campaign reassembles results indistinguishable from a fresh run.
    """
    return {
        "module_id": report.module_id,
        "examples": [
            {
                "inputs": [_binding_to_dict(b) for b in example.inputs],
                "outputs": [_binding_to_dict(b) for b in example.outputs],
            }
            for example in report.examples
        ],
        "selected": [
            [
                parameter,
                [[partition, value_to_wire(value)] for partition, value in chosen.items()],
            ]
            for parameter, chosen in report.selected.items()
        ],
        "unrealized_partitions": [list(pair) for pair in report.unrealized_partitions],
        "invalid_combinations": report.invalid_combinations,
        "unavailable_combinations": report.unavailable_combinations,
        "quarantined": [
            {
                "inputs": [_binding_to_dict(b) for b in record.inputs],
                "outputs": [_binding_to_dict(b) for b in record.outputs],
                "cause": record.cause,
                "detail": record.detail,
            }
            for record in report.quarantined
        ],
    }


def report_from_dict(data: dict) -> GenerationReport:
    """Rebuild a generation report from its journaled form."""
    module_id = data["module_id"]
    selected: dict[str, dict[str, TypedValue]] = {
        parameter: {
            partition: value_from_wire(wire) for partition, wire in chosen
        }
        for parameter, chosen in data["selected"]
    }
    return GenerationReport(
        module_id=module_id,
        examples=[
            DataExample(
                module_id=module_id,
                inputs=tuple(_binding_from_dict(b) for b in example["inputs"]),
                outputs=tuple(_binding_from_dict(b) for b in example["outputs"]),
            )
            for example in data["examples"]
        ],
        selected=selected,
        unrealized_partitions=[
            tuple(pair) for pair in data["unrealized_partitions"]
        ],
        invalid_combinations=data["invalid_combinations"],
        unavailable_combinations=data["unavailable_combinations"],
        # PR-2-era journals predate quarantine; default to none.
        quarantined=[
            QuarantinedExample(
                module_id=module_id,
                inputs=tuple(_binding_from_dict(b) for b in record["inputs"]),
                outputs=tuple(_binding_from_dict(b) for b in record["outputs"]),
                cause=record["cause"],
                detail=record["detail"],
            )
            for record in data.get("quarantined", [])
        ],
    )


# ----------------------------------------------------------------------
# Journal records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JournalEntry:
    """One journaled per-module outcome."""

    module_id: str
    status: str  # 'done' | 'skipped'
    detail: str = ""
    report: "GenerationReport | None" = None


@dataclass(frozen=True)
class CampaignMeta:
    """The campaigns-table row of one campaign."""

    campaign_id: str
    seed: int
    status: str
    module_ids: tuple[str, ...]
    config: dict = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        """Shard journals the campaign plans (1 when not sharded)."""
        return max(1, int((self.config or {}).get("workers", 1) or 1))


class UnknownCampaignError(KeyError):
    """The journal holds no campaign under the requested id."""


class CampaignJournal(WalStore):
    """SQLite-backed write-ahead journal of campaign progress.

    A :class:`~repro.wal.WalStore`: one connection shared across threads
    (the batch scheduler journals from workers) behind a lock, every
    record its own committed statement, so a SIGKILL at any point leaves
    a consistent journal.  Sharded campaigns have one writer per shard
    journal plus concurrent readers (the supervisor's heartbeat poll,
    ``repro-cli top``, the merge step).  Worker lifecycle events,
    heartbeats and span trees are the inherited lifecycle records, scoped
    by campaign id.
    """

    SCHEMA = _SCHEMA

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def create(
        self,
        campaign_id: str,
        seed: int,
        module_ids: "list[str]",
        config: "dict | None" = None,
    ) -> None:
        """Open a new campaign in ``running`` state.

        Raises:
            ValueError: If the campaign id is already journaled, or is
                the serving fleet's scope.
        """
        if campaign_id == FLEET_SCOPE:
            raise ValueError(
                f"{FLEET_SCOPE!r} is reserved for the serving fleet's records"
            )
        try:
            self._write(
                "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    seed,
                    RUNNING,
                    json.dumps(list(module_ids)),
                    json.dumps(config or {}, sort_keys=True),
                ),
            )
        except sqlite3.IntegrityError:
            raise ValueError(
                f"campaign {campaign_id!r} already exists in {self.path}"
            ) from None

    def meta(self, campaign_id: str) -> CampaignMeta:
        """The campaign's row.

        Raises:
            UnknownCampaignError: No such campaign in this journal.
        """
        rows = self._query(
            "SELECT campaign_id, seed, status, module_ids_json, config_json "
            "FROM campaigns WHERE campaign_id = ?",
            (campaign_id,),
        )
        if not rows:
            raise UnknownCampaignError(campaign_id)
        (row,) = rows
        return CampaignMeta(
            campaign_id=row[0],
            seed=row[1],
            status=row[2],
            module_ids=tuple(json.loads(row[3])),
            config=json.loads(row[4]),
        )

    def campaigns(self) -> "list[CampaignMeta]":
        """All journaled campaigns, id-ordered."""
        rows = self._query(
            "SELECT campaign_id FROM campaigns ORDER BY campaign_id"
        )
        return [self.meta(campaign_id) for (campaign_id,) in rows]

    def set_status(self, campaign_id: str, status: str) -> None:
        """Move a campaign to ``running`` / ``complete`` / ``degraded``."""
        if status not in (RUNNING, COMPLETE, DEGRADED):
            raise ValueError(f"unknown campaign status {status!r}")
        if not self._write(
            "UPDATE campaigns SET status = ? WHERE campaign_id = ?",
            (status, campaign_id),
        ):
            raise UnknownCampaignError(campaign_id)

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def record_done(self, campaign_id: str, report: GenerationReport) -> None:
        """Commit one completed module (replacing any earlier skip)."""
        payload = json.dumps(report_to_dict(report), sort_keys=True)
        self._write(
            "INSERT OR REPLACE INTO campaign_entries VALUES (?, ?, ?, ?, ?)",
            (campaign_id, report.module_id, "done", "", payload),
        )

    def record_skipped(self, campaign_id: str, module_id: str, reason: str) -> None:
        """Journal a module the campaign gave up on (resumable later)."""
        self._write(
            "INSERT OR REPLACE INTO campaign_entries VALUES (?, ?, ?, ?, ?)",
            (campaign_id, module_id, "skipped", reason, "{}"),
        )

    # ------------------------------------------------------------------
    # Snapshots (the longitudinal time-series, PR 5)
    # ------------------------------------------------------------------
    def record_snapshot(self, campaign_id: str, t_ms: float, snapshot: dict) -> None:
        """Commit one time-series sample.

        Exactly the span discipline: each snapshot is its own committed
        transaction, so a SIGKILLed campaign keeps every sample taken
        before the kill and the time line reconstructs from the journal
        file alone.  Snapshots are observations — they never feed report
        reassembly, so sampling cannot perturb kill/resume byte-identity.
        """
        self._write(
            "INSERT INTO campaign_snapshots "
            "(campaign_id, t_ms, snapshot_json) VALUES (?, ?, ?)",
            (campaign_id, t_ms, json.dumps(snapshot, sort_keys=True)),
        )

    def snapshots(self, campaign_id: str) -> "list[dict]":
        """The journaled time-series of one campaign, recording order.

        Each dict is one sample as the sampler committed it; a resumed
        campaign appends to the same time line (its samples carry a
        fresh ``run`` stamp, so per-process segments stay separable).
        """
        rows = self._query(
            "SELECT snapshot_json FROM campaign_snapshots "
            "WHERE campaign_id = ? ORDER BY snap_seq",
            (campaign_id,),
        )
        return [json.loads(row[0]) for row in rows]

    def snapshot_count(self, campaign_id: str) -> int:
        """Journaled samples of one campaign."""
        return self._query(
            "SELECT COUNT(*) FROM campaign_snapshots WHERE campaign_id = ?",
            (campaign_id,),
        )[0][0]

    # ------------------------------------------------------------------
    # Alerts (the SLO / drift alert history, PR 5)
    # ------------------------------------------------------------------
    def record_alert(self, campaign_id: str, event: dict) -> None:
        """Commit one alert lifecycle event (``firing`` or ``resolved``).

        The journal keeps the full event *history*; current alert state
        is a fold over it (:func:`repro.obs.slo.alert_states`), so a
        killed campaign's alerts reconstruct from the file alone.
        """
        self._write(
            "INSERT INTO campaign_alerts "
            "(campaign_id, slo, kind, subject, state, t_ms, detail) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                campaign_id,
                event.get("slo", ""),
                event.get("kind", ""),
                event.get("subject", ""),
                event.get("state", "firing"),
                event.get("t_ms", 0.0),
                event.get("detail", ""),
            ),
        )

    def alerts(self, campaign_id: str) -> "list[dict]":
        """The alert event history of one campaign, recording order."""
        rows = self._query(
            "SELECT slo, kind, subject, state, t_ms, detail "
            "FROM campaign_alerts WHERE campaign_id = ? ORDER BY alert_seq",
            (campaign_id,),
        )
        return [
            {
                "slo": row[0],
                "kind": row[1],
                "subject": row[2],
                "state": row[3],
                "t_ms": row[4],
                "detail": row[5],
            }
            for row in rows
        ]

    # ------------------------------------------------------------------
    # Match signatures (the signature-index build campaign, PR 9)
    # ------------------------------------------------------------------
    def record_signature(
        self, campaign_id: str, module_id: str, record: dict
    ) -> None:
        """Commit one module's computed behavior signature.

        Exactly the report-entry discipline: each signature is its own
        committed transaction *before* the index build moves on, so a
        killed ``repro-cli match index`` run resumes by re-loading the
        journaled signatures and sketching only the remainder.  Re-adds
        replace (last write wins) — re-sketching a module is idempotent.
        """
        self._write(
            "INSERT OR REPLACE INTO match_signatures VALUES (?, ?, ?)",
            (campaign_id, module_id, json.dumps(record, sort_keys=True)),
        )

    def signatures(self, campaign_id: str) -> "dict[str, dict]":
        """All journaled signature records of one campaign, by module id."""
        rows = self._query(
            "SELECT module_id, signature_json FROM match_signatures "
            "WHERE campaign_id = ?",
            (campaign_id,),
        )
        return {module_id: json.loads(payload) for module_id, payload in rows}

    def signature_count(self, campaign_id: str) -> int:
        """Journaled signatures of one campaign (cheap, no JSON parse)."""
        return self._query(
            "SELECT COUNT(*) FROM match_signatures WHERE campaign_id = ?",
            (campaign_id,),
        )[0][0]

    # ------------------------------------------------------------------
    def progress_counts(self, campaign_id: str) -> "dict[str, int]":
        """Cheap per-status entry counts (no report deserialization).

        The sampler calls this once per campaign round; parsing every
        journaled report JSON there would make sampling O(results), not
        O(1) queries.
        """
        counts = dict(
            self._query(
                "SELECT status, COUNT(*) FROM campaign_entries "
                "WHERE campaign_id = ? GROUP BY status",
                (campaign_id,),
            )
        )
        return {
            "n_done": counts.get("done", 0),
            "n_skipped": counts.get("skipped", 0),
        }

    def entries(self, campaign_id: str) -> "dict[str, JournalEntry]":
        """All journaled entries of one campaign, keyed by module id."""
        rows = self._query(
            "SELECT module_id, status, detail, report_json "
            "FROM campaign_entries WHERE campaign_id = ?",
            (campaign_id,),
        )
        entries: dict[str, JournalEntry] = {}
        for module_id, status, detail, report_json in rows:
            report = None
            if status == "done":
                report = report_from_dict(json.loads(report_json))
            entries[module_id] = JournalEntry(
                module_id=module_id, status=status, detail=detail, report=report
            )
        return entries


# ----------------------------------------------------------------------
# Read-only progress rollup (CLI `campaign status`, HTTP campaign API).
# ----------------------------------------------------------------------
def campaign_progress(journal: CampaignJournal, meta: CampaignMeta) -> dict:
    """One campaign's JSON-compatible progress rollup.

    Everything is derived from the journal alone, so any read-only
    consumer — ``repro-cli campaign status``, the serving layer's
    ``GET /v1/campaigns/{id}`` — can report on a campaign running in a
    different process (or post-mortem a killed one) without sharing any
    state beyond the SQLite file.
    """
    entries = journal.entries(meta.campaign_id)
    done = [e for e in entries.values() if e.status == "done"]
    skipped = {
        e.module_id: e.detail for e in entries.values() if e.status == "skipped"
    }
    return {
        "campaign_id": meta.campaign_id,
        "seed": meta.seed,
        "status": meta.status,
        "n_planned": len(meta.module_ids),
        "n_done": len(done),
        "n_skipped": len(skipped),
        "n_pending": len(meta.module_ids) - len(done) - len(skipped),
        "n_examples": sum(entry.report.n_examples for entry in done),
        "timed_out_combinations": sum(
            entry.report.timed_out_combinations for entry in done
        ),
        "quarantined_combinations": sum(
            entry.report.quarantined_combinations for entry in done
        ),
        "skipped": skipped,
    }
