"""One way to open the multi-process SQLite files: campaign journals and
the serve-state store.  WAL lets readers proceed while a writer commits;
the busy timeout makes writer collisions wait instead of failing; and
``synchronous=NORMAL`` keeps commits across a process kill (only an OS
crash can lose the tail of the log).
"""

from __future__ import annotations

import os
import sqlite3


def open_wal(
    path: str, schema: str, busy_timeout: float = 10.0, autocommit: bool = False
) -> sqlite3.Connection:
    """Connect to ``path`` in WAL mode and apply the ``CREATE ... IF NOT
    EXISTS`` ``schema``.  With ``autocommit`` single statements commit on
    their own; otherwise the caller commits (``with connection:``).  The
    connection may cross threads; callers serialise it with a lock."""
    connection = sqlite3.connect(
        path,
        timeout=busy_timeout,
        check_same_thread=False,
        isolation_level=None if autocommit else "",
    )
    connection.execute(f"PRAGMA busy_timeout = {int(busy_timeout * 1000)}")
    connection.execute("PRAGMA journal_mode = WAL")
    connection.execute("PRAGMA synchronous = NORMAL")
    connection.executescript(schema)
    return connection


def has_table(path: str, table: str, nonempty: bool = False) -> bool:
    """Whether the SQLite file at ``path`` has ``table`` — with at least
    one row when ``nonempty`` — checked without creating anything."""
    if not path or not os.path.exists(str(path)):
        return False
    try:
        connection = sqlite3.connect(str(path))
    except sqlite3.Error:
        return False
    try:
        if connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
            (table,),
        ).fetchone() is None:
            return False
        return not nonempty or connection.execute(
            f"SELECT 1 FROM {table} LIMIT 1"
        ).fetchone() is not None
    except sqlite3.Error:
        return False
    finally:
        connection.close()


__all__ = ["has_table", "open_wal"]
