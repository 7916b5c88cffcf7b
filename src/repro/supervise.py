"""One process supervisor for shard workers and serving replicas.

:class:`Supervisor` keeps N ``spawn``-context children alive: it reaps
exits, SIGKILLs a child whose journaled heartbeat went stale, restarts
with exponential backoff up to ``max_restarts``, then degrades the slot.
Callers (:class:`~repro.campaign.supervisor.CampaignSupervisor`,
:class:`~repro.serve.fleet.ServeSupervisor`) supply only what differs:
the child's entry point and spec, where its heartbeat row is read, where
lifecycle events are journaled, and a :class:`ChildPolicy`.  The model
is described in DESIGN.md §12.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Callable

#: Signals a ``block_stop_signals`` child starts with blocked.
STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


@dataclass
class Child:
    """Supervision bookkeeping of one slot — a shard or a replica — in
    memory only.  ``worker`` is the process identity journaled with
    events (a restarted shard gets a fresh one)."""

    slot: int
    worker: int
    attempt: int = 0
    restarts: int = 0
    process: "multiprocessing.process.BaseProcess | None" = None
    spawned_at: float = 0.0
    restart_at: float = 0.0
    done: bool = False
    degraded: bool = False

    @property
    def finished(self) -> bool:
        return self.done or self.degraded

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


@dataclass(frozen=True)
class ChildPolicy:
    """What differs in how a supervisor treats its children.

    ``done_kind`` is the event of a clean exit that finishes the slot;
    ``None`` makes every exit a crash to repair.  ``restart_kind`` and
    ``degraded_kind`` name the events of a scheduled restart and of an
    exhausted budget; ``reassign`` gives each restart a fresh worker id.
    ``block_stop_signals`` starts the child with :data:`STOP_SIGNALS`
    blocked; its entry point unblocks them once its handlers are
    installed, so a stop sent while it boots waits for the handler.
    """

    done_kind: "str | None"
    restart_kind: str
    degraded_kind: str
    reassign: bool = False
    block_stop_signals: bool = False


class HeartbeatThread(threading.Thread):
    """Calls ``beat("running")`` every ``interval`` seconds.  While the
    chaos hook ``muted()`` is true it skips beats: alive but mute."""

    def __init__(
        self,
        beat: Callable[[str], None],
        interval: float,
        name: str,
        muted: "Callable[[], bool] | None" = None,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.beat = beat
        self.interval = interval
        self.muted = muted
        # NB: not named ``_stop`` — threading.Thread.join() calls an
        # internal ``self._stop()`` method that an Event would shadow.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            if self.muted is None or not self.muted():
                self.beat("running")

    def stop(self, final_phase: "str | None" = None) -> None:
        self._halt.set()
        self.join(timeout=5.0)
        if final_phase is not None:
            self.beat(final_phase)


class Supervisor:
    """Spawns, reaps, heartbeat-checks and restarts ``children``.

    Args:
        config: A ``CampaignConfig`` or ``FleetConfig`` (both carry
            ``heartbeat_interval``, ``heartbeat_timeout``,
            ``max_restarts`` and ``restart_backoff``).
        launch: ``child -> (entry point, spec, spawn-event suffix)`` for
            the child's next attempt.
        last_heartbeat: ``child -> row with attempt and heartbeat_wall``,
            or ``None``.
        record: ``(child, kind, detail, t_wall or None)`` journals one
            lifecycle event.
        name: Process-name prefix (``<name>-<slot:02d>``).
    """

    def __init__(
        self,
        children: "list[Child]",
        config,
        policy: ChildPolicy,
        launch: "Callable[[Child], tuple[Callable, dict, str]]",
        last_heartbeat: "Callable[[Child], dict | None]",
        record: "Callable[[Child, str, str, float | None], None]",
        name: str,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.children = children
        self.config = config
        self.policy = policy
        self._launch = launch
        self._last_heartbeat = last_heartbeat
        self._record = record
        self._name = name
        self._wall = wall_clock
        self._mp = multiprocessing.get_context("spawn")
        self._next_worker = 1 + max((c.worker for c in children), default=-1)

    @property
    def poll_interval(self) -> float:
        return max(0.05, min(0.2, self.config.heartbeat_interval / 2.0))

    @property
    def finished(self) -> bool:
        return all(child.finished for child in self.children)

    # ------------------------------------------------------------------
    def spawn(self, child: Child, kind: str) -> None:
        """Start the child's next attempt and journal ``kind``."""
        child.attempt += 1
        target, spec, suffix = self._launch(child)
        process = self._mp.Process(
            target=target, args=(spec,), name=f"{self._name}-{child.slot:02d}"
        )
        if self.policy.block_stop_signals:
            # The signal mask survives fork and exec (CPython guards its
            # resource tracker the same way, bpo-33613).  Start that
            # tracker first: launching it unblocks the stop signals.
            resource_tracker.ensure_running()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
            try:
                process.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        else:
            process.start()
        child.process = process
        child.spawned_at = self._wall()
        self._record(
            child,
            kind,
            f"pid {process.pid} attempt {child.attempt}{suffix}",
            child.spawned_at,
        )

    def poll(self) -> None:
        """One supervision pass: respawn after backoff, reap exits,
        kill wedged children."""
        for child in self.children:
            if child.finished:
                continue
            if child.process is None:
                if self._wall() >= child.restart_at:
                    self.spawn(child, "restart")
                continue
            exitcode = child.process.exitcode
            if exitcode is not None:
                child.process.join()
                if exitcode == 0 and self.policy.done_kind is not None:
                    child.done = True
                    self._record(
                        child, self.policy.done_kind,
                        f"attempt {child.attempt}", None,
                    )
                else:
                    self._record(child, "crash", f"exit code {exitcode}", None)
                    self._schedule_restart(child)
                continue
            if self.heartbeat_stale(child):
                self._record(
                    child,
                    "heartbeat-miss",
                    f"no heartbeat for >{self.config.heartbeat_timeout:g}s "
                    f"— killing pid {child.process.pid}",
                    None,
                )
                child.process.kill()
                child.process.join()
                self._schedule_restart(child)

    def run(self, sleep: Callable[[float], None] = time.sleep) -> None:
        """Poll until every child is done or degraded."""
        while True:
            self.poll()
            if self.finished:
                return
            sleep(self.poll_interval)

    # ------------------------------------------------------------------
    def last_beat(self, child: Child) -> "float | None":
        """Wall time of the current attempt's latest heartbeat, or
        ``None`` when this attempt has not beaten yet (a row left by an
        earlier attempt must not vouch for a wedged restart)."""
        status = self._last_heartbeat(child)
        if status is not None and status["attempt"] == child.attempt:
            return status["heartbeat_wall"]
        return None

    def heartbeat_stale(self, child: Child) -> bool:
        """Is the child's heartbeat older than the timeout?  Before the
        first beat lands, staleness is measured from the spawn instant
        (world rebuild takes a moment)."""
        last = max(child.spawned_at, self.last_beat(child) or 0.0)
        return self._wall() - last > self.config.heartbeat_timeout

    def _schedule_restart(self, child: Child) -> None:
        child.process = None
        budget = self.config.max_restarts
        if child.restarts >= budget:
            child.degraded = True
            self._record(
                child,
                self.policy.degraded_kind,
                f"restart budget exhausted ({budget} restarts)",
                None,
            )
            return
        backoff = self.config.restart_backoff * (2 ** child.restarts)
        child.restarts += 1
        child.restart_at = self._wall() + backoff
        detail = f"restart {child.restarts}/{budget} after {backoff:g}s backoff"
        if self.policy.reassign:
            old, child.worker = child.worker, self._next_worker
            self._next_worker += 1
            detail = f"worker {old} -> {child.worker}, {detail}"
        self._record(child, self.policy.restart_kind, detail, None)


__all__ = [
    "Child", "ChildPolicy", "HeartbeatThread", "STOP_SIGNALS", "Supervisor",
]
