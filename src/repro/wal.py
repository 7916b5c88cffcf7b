"""One SQLite WAL store for every multi-process file: campaign journals,
their shard journals, and the serve-state store.

WAL lets readers proceed while a writer commits; the busy timeout makes
writer collisions wait instead of failing; ``synchronous=NORMAL`` keeps
commits across a process kill (only an OS crash can lose the tail of
the log).  Every statement commits on its own, so a SIGKILL anywhere
leaves a consistent file.

:class:`WalStore` also owns the lifecycle records every supervised
process leaves behind, keyed by ``(scope, slot)``.  The scope is a
campaign id (a shard journal's is its shard campaign id) or
:data:`FLEET_SCOPE` for the serving fleet; the slot is the shard or the
replica.  Tables:

``wal_events``
    The lifecycle timeline: spawn, crash, restart, heartbeat-miss,
    drain, ...
``wal_heartbeats``
    The latest heartbeat of each slot (last write wins), carrying the
    process's full stats snapshot and the heartbeat timeout its
    supervisor judges it by, so every reader folds liveness the way the
    supervisor does (:func:`fold_rows`).
``wal_spans``
    Completed span trees, one committed row each: the flight recorder of
    campaigns and of the fleet alike.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from collections import Counter
from typing import Callable

#: The scope of the serving fleet's lifecycle records.  Campaign ids are
#: free-form and share the file, so ``CampaignJournal.create`` rejects it.
FLEET_SCOPE = "::fleet"

#: Seconds a statement waits for another process's write lock.
BUSY_TIMEOUT = 10.0

#: Heartbeat age past which a slot counts as down, unless its heartbeat
#: row journals the supervisor's own timeout.
HEARTBEAT_TIMEOUT = 10.0

_LIFECYCLE_SCHEMA = """
CREATE TABLE IF NOT EXISTS wal_events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    scope TEXT NOT NULL,
    slot INTEGER NOT NULL,
    worker INTEGER NOT NULL,
    t_wall REAL NOT NULL,
    kind TEXT NOT NULL,
    detail TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS wal_events_by_scope ON wal_events (scope);
CREATE TABLE IF NOT EXISTS wal_heartbeats (
    scope TEXT NOT NULL,
    slot INTEGER NOT NULL,
    worker INTEGER NOT NULL,
    pid INTEGER NOT NULL,
    attempt INTEGER NOT NULL,
    phase TEXT NOT NULL,
    count INTEGER NOT NULL,
    started_wall REAL,
    heartbeat_wall REAL NOT NULL,
    timeout REAL NOT NULL,
    stats_json TEXT NOT NULL,
    PRIMARY KEY (scope, slot)
);
CREATE TABLE IF NOT EXISTS wal_spans (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    scope TEXT NOT NULL,
    slot INTEGER,
    module_id TEXT NOT NULL,
    span_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS wal_spans_by_scope ON wal_spans (scope, module_id);
"""


def _names(scope: str) -> "tuple[str, str]":
    """What rows read back under ``scope`` call the slot and the
    heartbeat's progress counter."""
    if scope == FLEET_SCOPE:
        return "replica", "requests_total"
    return "shard", "invocations"


def fold_rows(
    statuses: "list[dict]",
    events: "list[dict]",
    key: str,
    now: float,
    heartbeat_timeout: "float | None" = None,
) -> "list[dict]":
    """Fold heartbeat rows with their scope's event timeline; ``key``
    names the slot in both.

    Each row gains ``heartbeat_age`` (``None`` before its first beat),
    ``restarts`` (its slot's ``restart`` events) and ``alive``: the
    phase is ``running`` and the heartbeat is no older than
    ``heartbeat_timeout``, or than the row's own journaled timeout when
    none is given.  Derived from the file alone, so a dead fleet's rows
    age out of liveness on their own.
    """
    restarts = Counter(
        event[key] for event in events if event["kind"] == "restart"
    )
    rows = []
    for status in statuses:
        wall = status["heartbeat_wall"]
        age = None if wall is None else max(0.0, now - wall)
        limit = heartbeat_timeout or status["timeout"]
        rows.append(
            {
                **status,
                "heartbeat_age": age,
                "restarts": restarts[status[key]],
                "alive": (
                    status["phase"] == "running"
                    and age is not None
                    and age <= limit
                ),
            }
        )
    return rows


def has_fleet_state(path: "str | None") -> bool:
    """Whether the SQLite file at ``path`` holds a fleet heartbeat —
    checked without creating anything.  ``repro-cli top``, ``serve
    fleet``, ``profile --serve`` and the fleet scrape all ask this."""
    if not path or not os.path.exists(str(path)):
        return False
    try:
        connection = sqlite3.connect(str(path))
    except sqlite3.Error:
        return False
    try:
        return connection.execute(
            "SELECT 1 FROM wal_heartbeats WHERE scope = ? LIMIT 1",
            (FLEET_SCOPE,),
        ).fetchone() is not None
    except sqlite3.Error:
        return False
    finally:
        connection.close()


class WalStore:
    """A SQLite WAL file with the lifecycle tables.

    One connection is shared across threads behind a lock.  Subclasses
    add their own tables in ``SCHEMA`` and inherit the lifecycle
    methods.  Dicts read back name the slot and the heartbeat counter
    for the scope: ``replica`` and ``requests_total`` under
    :data:`FLEET_SCOPE`, ``shard`` and ``invocations`` otherwise.

    Args:
        path: The SQLite file (created on first open).
        wall_clock: Wall-clock source for event and heartbeat stamps
            (they must survive restarts, so monotonic clocks don't
            qualify).
    """

    SCHEMA = ""

    def __init__(
        self,
        path: "str | os.PathLike",
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = str(path)
        self._wall = wall_clock
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            self.path,
            timeout=BUSY_TIMEOUT,
            check_same_thread=False,
            isolation_level=None,
        )
        self._connection.execute("PRAGMA journal_mode = WAL")
        self._connection.execute("PRAGMA synchronous = NORMAL")
        self._connection.executescript(_LIFECYCLE_SCHEMA + self.SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def _query(self, sql: str, params: tuple = ()) -> "list[tuple]":
        with self._lock:
            return self._connection.execute(sql, params).fetchall()

    def _write(self, sql: str, params: tuple = ()) -> int:
        """Run one statement (it commits on its own); its rowcount."""
        with self._lock:
            return self._connection.execute(sql, params).rowcount

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def record_event(
        self,
        scope: str,
        slot: int,
        kind: str,
        detail: str = "",
        t_wall: "float | None" = None,
        worker: "int | None" = None,
    ) -> None:
        """Commit one lifecycle event of ``slot``; ``worker`` is the
        process identity (the slot itself unless a restart reassigned
        it)."""
        self._write(
            "INSERT INTO wal_events "
            "(scope, slot, worker, t_wall, kind, detail) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                scope,
                slot,
                slot if worker is None else worker,
                self._wall() if t_wall is None else t_wall,
                kind,
                detail,
            ),
        )

    def events(self, scope: str) -> "list[dict]":
        """The scope's lifecycle timeline, recording order."""
        key, _ = _names(scope)
        return [
            {
                "seq": seq,
                "t_wall": t_wall,
                key: slot,
                "worker": worker,
                "kind": kind,
                "detail": detail,
            }
            for seq, t_wall, slot, worker, kind, detail in self._query(
                "SELECT seq, t_wall, slot, worker, kind, detail "
                "FROM wal_events WHERE scope = ? ORDER BY seq",
                (scope,),
            )
        ]

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def record_heartbeat(
        self,
        scope: str,
        slot: int,
        phase: str = "running",
        *,
        worker: "int | None" = None,
        pid: int = 0,
        attempt: int = 0,
        count: int = 0,
        stats: "dict | None" = None,
        started_wall: "float | None" = None,
        timeout: float = HEARTBEAT_TIMEOUT,
        heartbeat_wall: "float | None" = None,
    ) -> None:
        """Commit the slot's current heartbeat row (last write wins).

        The row carries the process's full stats snapshot: this is how
        per-process telemetry leaves it without shared memory, and what
        the fleet scrape and the sharded merge fold back together.
        """
        self._write(
            "INSERT OR REPLACE INTO wal_heartbeats VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                scope,
                slot,
                slot if worker is None else worker,
                pid,
                attempt,
                phase,
                count,
                started_wall,
                self._wall() if heartbeat_wall is None else heartbeat_wall,
                timeout,
                json.dumps(stats or {}, sort_keys=True),
            ),
        )

    def _heartbeats(
        self, scope: str, slot: "int | None" = None
    ) -> "list[dict]":
        key, count_key = _names(scope)
        query = (
            "SELECT slot, worker, pid, attempt, phase, count, started_wall, "
            "heartbeat_wall, timeout, stats_json FROM wal_heartbeats "
            "WHERE scope = ?"
        )
        params: tuple = (scope,)
        if slot is not None:
            query += " AND slot = ?"
            params += (slot,)
        return [
            {
                key: row[0],
                "worker": row[1],
                "pid": row[2],
                "attempt": row[3],
                "phase": row[4],
                count_key: row[5],
                "started_wall": row[6],
                "heartbeat_wall": row[7],
                "timeout": row[8],
                "stats": json.loads(row[9]),
            }
            for row in self._query(query + " ORDER BY slot", params)
        ]

    def heartbeat(self, scope: str, slot: int) -> "dict | None":
        """The slot's latest heartbeat row, or ``None``."""
        rows = self._heartbeats(scope, slot)
        return rows[0] if rows else None

    def heartbeats(self, scope: str) -> "list[dict]":
        """Every heartbeat row of the scope, slot order."""
        return self._heartbeats(scope)

    def slot_rows(
        self,
        scope: str,
        now: "float | None" = None,
        heartbeat_timeout: "float | None" = None,
    ) -> "list[dict]":
        """The scope's heartbeat rows folded with its events
        (:func:`fold_rows`): the ``serve fleet`` and scrape rows."""
        return fold_rows(
            self._heartbeats(scope),
            self.events(scope),
            _names(scope)[0],
            self._wall() if now is None else now,
            heartbeat_timeout,
        )

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def record_span(
        self, scope: str, span: dict, slot: "int | None" = None
    ) -> None:
        """Commit one completed span tree.

        Each span is its own committed statement, so a SIGKILLed process
        keeps every trace that finished before the kill.  Spans are
        observations, not results: they never feed report reassembly.
        """
        self._write(
            "INSERT INTO wal_spans (scope, slot, module_id, span_json) "
            "VALUES (?, ?, ?, ?)",
            (
                scope,
                slot,
                span.get("module_id", ""),
                json.dumps(span, sort_keys=True),
            ),
        )

    def spans(
        self,
        scope: str,
        slot: "int | None" = None,
        module_id: "str | None" = None,
    ) -> "list[dict]":
        """The scope's span trees, recording order.  A span recorded
        with a slot carries it under ``_replica`` / ``_shard`` (the span
        payload itself is untouched)."""
        key, _ = _names(scope)
        query = "SELECT slot, span_json FROM wal_spans WHERE scope = ?"
        params: tuple = (scope,)
        if slot is not None:
            query += " AND slot = ?"
            params += (slot,)
        if module_id is not None:
            query += " AND module_id = ?"
            params += (module_id,)
        spans = []
        for row_slot, payload in self._query(query + " ORDER BY seq", params):
            span = json.loads(payload)
            if row_slot is not None:
                span["_" + key] = row_slot
            spans.append(span)
        return spans

    def span_count(self, scope: str) -> int:
        return self._query(
            "SELECT COUNT(*) FROM wal_spans WHERE scope = ?", (scope,)
        )[0][0]


__all__ = [
    "BUSY_TIMEOUT",
    "FLEET_SCOPE",
    "HEARTBEAT_TIMEOUT",
    "WalStore",
    "fold_rows",
    "has_fleet_state",
]
