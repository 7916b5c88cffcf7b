#!/usr/bin/env python
"""CI smoke for the sharded campaign (the ``chaos-matrix`` job).

The acceptance scenario of the crash-tolerant sharding work, end to end
at the CLI surface:

1. Start ``repro-cli campaign run --workers 4 --chaos-kill-rate R`` —
   every first-attempt worker plays Russian roulette on each
   invocation, so some (usually all) get SIGKILLed mid-shard and the
   supervisor must restart them.
2. While it runs, SIGKILL the **supervisor process itself** as soon as
   its journal holds a worker ``crash`` and the ``restart`` that
   repaired it — the worst crash the design promises to survive, after
   the recovery it must leave on record (``resume`` never re-arms
   chaos, so no crash can be journaled later).
3. ``repro-cli campaign resume`` from whatever subset of journals the
   massacre left behind.
4. Run the identical campaign serially (workers=1, no chaos) in a
   fresh journal and demand the resumed report is **byte-identical**
   (same rendered bytes, same content digest line).
5. Assert the post-mortem surfaces work: ``campaign workers`` renders
   the fleet + event timeline with the crash and restart in it,
   ``top --once`` renders worker rows.

Exits nonzero with a diagnostic on any miss; stdlib only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
try:
    from repro.campaign import CampaignJournal
except ImportError:  # invoked without PYTHONPATH=src
    sys.path.insert(0, SRC)
    from repro.campaign import CampaignJournal
from repro.campaign.sharding import shard_journals

CAMPAIGN = "chaos"
WORKERS = 4
LIMIT = 12
KILL_RATE = 0.4
FLAGS = [
    "--limit", str(LIMIT),
    "--latency-ms", "40",
    "--heartbeat-interval", "0.2",
    "--restart-backoff", "0.05",
]


def fail(message: str) -> int:
    print(f"chaos-smoke: FAIL — {message}", file=sys.stderr)
    return 1


#: The CLI subprocesses import the checkout's own sources.
ENV = {
    **os.environ,
    "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
}


def cli(*args: str) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=ENV,
    )


def journaled(db: Path) -> "tuple[set[str], int]":
    """``(event kinds in the main journal, modules done across the
    shard journals)``, read through the journal API."""
    if not db.exists():
        return set(), 0
    journal = CampaignJournal(db)
    try:
        kinds = {event["kind"] for event in journal.events(CAMPAIGN)}
    finally:
        journal.close()
    done = sum(
        shard_journal.progress_counts(cid)["n_done"]
        for _, cid, shard_journal in shard_journals(
            db, CAMPAIGN, range(WORKERS)
        )
    )
    return kinds, done


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    db = tmp / "chaos.sqlite"
    print(
        f"chaos-smoke: {WORKERS} workers, kill-rate {KILL_RATE}, "
        f"supervisor SIGKILL pending ...",
    )
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", "run", CAMPAIGN,
         "--db", str(db), "--workers", str(WORKERS),
         "--chaos-kill-rate", str(KILL_RATE), *FLAGS],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=ENV,
    )
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            finished = victim.poll() is not None
            if {"crash", "restart"} <= journaled(db)[0]:
                break
            if finished:
                return fail("campaign finished before a journaled restart")
            time.sleep(0.05)
        else:
            return fail("no worker crash and restart journaled")
    finally:
        victim.kill()  # SIGKILL the supervisor; workers are orphaned
        victim.wait()
    print(
        f"chaos-smoke: supervisor killed after a journaled crash and "
        f"restart, {journaled(db)[1]}/{LIMIT} modules journaled"
    )

    resumed = cli("campaign", "resume", CAMPAIGN, "--db", str(db))
    if resumed.returncode != 0:
        return fail(f"resume failed: {resumed.stderr}")
    if "status: complete" not in resumed.stdout:
        return fail(f"resumed campaign not complete:\n{resumed.stdout}")

    reference = cli(
        "campaign", "run", CAMPAIGN, "--db", str(tmp / "serial.sqlite"),
        *FLAGS,
    )
    if reference.returncode != 0:
        return fail(f"serial reference failed: {reference.stderr}")
    if resumed.stdout != reference.stdout:
        return fail(
            "resumed report is not byte-identical to the serial run\n"
            f"--- resumed ---\n{resumed.stdout}\n"
            f"--- serial ---\n{reference.stdout}"
        )
    digest = next(
        line for line in resumed.stdout.splitlines() if "content digest" in line
    )
    print(f"chaos-smoke: byte-identical after resume ({digest.strip()})")

    fleet = cli("campaign", "workers", CAMPAIGN, "--db", str(db))
    if fleet.returncode != 0 or "EVENTS" not in fleet.stdout:
        return fail(f"campaign workers did not render: {fleet.stderr}")
    if "spawn" not in fleet.stdout:
        return fail("worker event timeline is missing spawn events")
    gauges = cli("campaign", "workers", CAMPAIGN, "--db", str(db),
                 "--prometheus")
    if "repro_campaign_worker_up{" not in gauges.stdout:
        return fail("per-worker Prometheus gauges missing")
    top = cli("top", CAMPAIGN, "--db", str(db), "--once")
    if top.returncode != 0 or "workers" not in top.stdout:
        return fail(f"top --once did not render worker rows: {top.stderr}")

    events = [
        line for line in fleet.stdout.splitlines()
        if any(k in line for k in ("crash", "restart", "heartbeat-miss"))
    ]
    if not events:
        return fail("no chaos lifecycle events survived in the timeline")
    print(f"chaos-smoke: OK — {len(events)} chaos lifecycle events survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
