"""Boot chaos: a fleet drained at any moment of its boot drains cleanly.

A SIGTERM can reach a replica at every point of its life: before the
interpreter has imported anything, while the server is being built,
or once it serves.  Replicas start with SIGTERM blocked and unblock it
right after installing their handlers, and a stop requested during the
build drains at once — so :meth:`ServeSupervisor.drain` must report a
graceful drain at every offset.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.serve import FleetConfig, ServeConfig, ServeSupervisor
from repro.wal import FLEET_SCOPE

#: Drain offsets after ``start()``: one seeded draw from each sixth of
#: the first 500 ms, so every boot phase is hit on every run.
OFFSETS = [
    random.Random(2014).uniform(0.5 * k / 6, 0.5 * (k + 1) / 6)
    for k in range(6)
]


@pytest.mark.parametrize("offset", OFFSETS, ids=lambda o: f"{o * 1000:.0f}ms")
def test_drain_during_boot_is_graceful(tmp_path, offset):
    supervisor = ServeSupervisor(
        ServeConfig(host="127.0.0.1", port=0, state_db=str(tmp_path / "f.db")),
        FleetConfig(replicas=2, heartbeat_interval=0.2, drain_timeout=5.0),
        service={"seed": 2014},
    )
    try:
        supervisor.start()
        time.sleep(offset)
        assert supervisor.drain() is True, [
            (event["replica"], event["kind"], event["detail"])
            for event in supervisor.store.events(FLEET_SCOPE)
        ]
        assert supervisor.pids == {}
        # Every replica drained itself and wrote its own final row.
        rows = supervisor.store.slot_rows(FLEET_SCOPE)
        assert [row["phase"] for row in rows] == ["drained", "drained"]
    finally:
        supervisor.close()
