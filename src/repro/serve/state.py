"""Durable serving state shared by every replica of a fleet.

A single-process :class:`~repro.serve.app.AnnotationServer` keeps its
memoized generation reports, its registration set and its per-tenant
token buckets in process memory — all of which die with the process and
none of which can be shared once ``repro-cli serve --replicas N`` runs
several replicas behind one ``SO_REUSEPORT`` socket.  The
:class:`ServeStateStore` closes that shared-nothing gap: it is a
:class:`~repro.wal.WalStore` like the campaign journal (WAL mode,
``synchronous=NORMAL``, a busy timeout, one committed statement per
write), so any number of replica processes read and write one file
concurrently and a ``kill -9`` anywhere loses at most the uncommitted
statement.

Tables of its own:

``serve_modules``
    The shared registration set.  A module registered through any
    replica is served by all of them.
``serve_reports``
    Memoized §3 generation reports (full
    :func:`~repro.campaign.journal.report_to_dict` round-trip), so one
    replica's work answers every replica's ``/v1/generate`` and a
    restarted fleet serves ``cached: true`` immediately.
``serve_tenants``
    Per-tenant token buckets on the *wall* clock (monotonic clocks do
    not survive a restart, wall clocks do).  ``charge`` is one
    ``BEGIN IMMEDIATE`` read-modify-write transaction, so concurrent
    replicas never double-spend a token and a restarted fleet resumes
    tenant accounting from exactly the journaled balance.

The fleet's lifecycle records are the inherited ones, under
:data:`~repro.wal.FLEET_SCOPE` with the replica as the slot: the
lifecycle timeline (spawn / crash / restart / heartbeat-miss / drain),
each replica's heartbeat row carrying its full ``stats()`` snapshot and
the supervisor's heartbeat timeout, and every engine span tree a replica
completes.  ``repro-cli serve fleet``, the fleet ``/metrics`` fold
(:class:`repro.obs.aggregate.MetricsAggregator`) and ``repro-cli trace
ID --fleet`` reconstruct the fleet from the file alone, after any
replica was SIGKILLed.

The store can live inside the campaign journal's own SQLite file (the
table namespaces are disjoint and the lifecycle records are scoped),
which is what the CLI does: one ``--db`` carries campaigns, HTTP
samples, alerts, and the serving fleet's state.
"""

from __future__ import annotations

import json

from repro.wal import WalStore

_SCHEMA = """
CREATE TABLE IF NOT EXISTS serve_modules (
    module_id TEXT PRIMARY KEY,
    registered_wall REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS serve_reports (
    module_id TEXT PRIMARY KEY,
    report_json TEXT NOT NULL,
    created_wall REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS serve_tenants (
    tenant TEXT PRIMARY KEY,
    tokens REAL NOT NULL,
    refilled_wall REAL NOT NULL,
    rate REAL NOT NULL,
    burst REAL NOT NULL,
    allowed INTEGER NOT NULL DEFAULT 0,
    limited INTEGER NOT NULL DEFAULT 0
);
"""


class ServeStateStore(WalStore):
    """Durable, multi-process serving state over one SQLite WAL file.

    Args:
        path: The SQLite file (shareable with a campaign journal).
        wall_clock: Wall-clock source (token refill and heartbeat ages
            must survive restarts, so monotonic clocks don't qualify).
    """

    SCHEMA = _SCHEMA

    # ------------------------------------------------------------------
    # Registration set
    # ------------------------------------------------------------------
    def register_module(self, module_id: str) -> bool:
        """Admit ``module_id`` into the shared serving set.

        Returns:
            True when this call inserted the row (first registration
            across the whole fleet), False when it was already there.
        """
        return self._write(
            "INSERT OR IGNORE INTO serve_modules "
            "(module_id, registered_wall) VALUES (?, ?)",
            (module_id, self._wall()),
        ) > 0

    def has_module(self, module_id: str) -> bool:
        return bool(
            self._query(
                "SELECT 1 FROM serve_modules WHERE module_id = ?", (module_id,)
            )
        )

    def module_ids(self) -> "list[str]":
        rows = self._query(
            "SELECT module_id FROM serve_modules ORDER BY module_id"
        )
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    # Memoized generation reports
    # ------------------------------------------------------------------
    def store_report(self, module_id: str, report: dict) -> None:
        """Upsert one memoized generation report (idempotent — every
        replica regenerating the same module writes the same bytes)."""
        self._write(
            "INSERT OR REPLACE INTO serve_reports "
            "(module_id, report_json, created_wall) VALUES (?, ?, ?)",
            (module_id, json.dumps(report, sort_keys=True), self._wall()),
        )

    def load_report(self, module_id: str) -> "dict | None":
        rows = self._query(
            "SELECT report_json FROM serve_reports WHERE module_id = ?",
            (module_id,),
        )
        return json.loads(rows[0][0]) if rows else None

    def report_count(self) -> int:
        return self._query("SELECT COUNT(*) FROM serve_reports")[0][0]

    # ------------------------------------------------------------------
    # Durable per-tenant token buckets
    # ------------------------------------------------------------------
    def configure_tenant(self, tenant: str, rate: float, burst: float) -> None:
        """Give ``tenant`` a bespoke budget, resetting it to full."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self._write(
            "INSERT OR REPLACE INTO serve_tenants "
            "(tenant, tokens, refilled_wall, rate, burst, allowed, limited) "
            "VALUES (?, ?, ?, ?, ?, 0, 0)",
            (tenant, float(burst), self._wall(), rate, float(burst)),
        )

    def charge_tenant(
        self, tenant: str, rate: float, burst: float
    ) -> "tuple[bool, float]":
        """Spend one token from ``tenant``'s durable bucket.

        One ``BEGIN IMMEDIATE`` transaction — the write lock serializes
        concurrent replicas so a token is never spent twice.  A tenant
        first seen here gets a full bucket with the given defaults; a
        row written earlier (by any process, before any restart) keeps
        its own rate/burst, so bespoke budgets survive the fleet.

        Returns:
            ``(True, 0.0)`` when admitted; ``(False, retry_after_s)``
            when the bucket is empty.
        """
        now = self._wall()
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                row = self._connection.execute(
                    "SELECT tokens, refilled_wall, rate, burst, allowed, "
                    "limited FROM serve_tenants WHERE tenant = ?",
                    (tenant,),
                ).fetchone()
                if row is None:
                    tokens, refilled = float(burst), now
                    row_rate, row_burst = rate, float(burst)
                    allowed, limited = 0, 0
                else:
                    tokens, refilled, row_rate, row_burst, allowed, limited = row
                # max(0, ...) guards a wall clock stepping backwards.
                tokens = min(
                    row_burst, tokens + max(0.0, now - refilled) * row_rate
                )
                if tokens >= 1.0:
                    tokens -= 1.0
                    allowed += 1
                    outcome = (True, 0.0)
                else:
                    limited += 1
                    outcome = (False, (1.0 - tokens) / row_rate)
                self._connection.execute(
                    "INSERT OR REPLACE INTO serve_tenants "
                    "(tenant, tokens, refilled_wall, rate, burst, allowed, "
                    "limited) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (tenant, tokens, now, row_rate, row_burst, allowed, limited),
                )
                self._connection.execute("COMMIT")
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
        return outcome

    def tenant_snapshot(self) -> dict:
        """``{tenant: bucket snapshot}`` in the in-memory limiter's shape."""
        rows = self._query(
            "SELECT tenant, tokens, rate, burst, allowed, limited "
            "FROM serve_tenants ORDER BY tenant"
        )
        return {
            tenant: {
                "allowed": allowed,
                "limited": limited,
                "tokens": round(tokens, 3),
                "rate": rate,
                "burst": burst,
            }
            for tenant, tokens, rate, burst, allowed, limited in rows
        }


__all__ = ["ServeStateStore"]
