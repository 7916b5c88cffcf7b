"""Open-loop HTTP load on a fixed number of keep-alive connections.

Requests arrive on a seeded Poisson schedule.  Each connection is owned
by one sender thread that takes the next due request in schedule order,
waits until it is due, sends it and reads the whole reply.  A request is
timed from its *due* time, so a stall on one request shows up as
lateness on the requests queued behind it.  Requests still unsent when
the window closes are never sent and count as missing every limit.

Bodies are kept as raw bytes and checked after the window, so the check
costs no time inside the measurement.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass

#: (method, path) per request kind.
ROUTES = {
    "generate": ("POST", "/v1/generate"),
    "match": ("POST", "/v1/match"),
    "modules": ("GET", "/v1/modules"),
    "healthz": ("GET", "/healthz"),
}


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset (s), kind, module, tenant."""

    due: float
    kind: str
    module_id: "str | None"
    tenant: str


@dataclass
class Outcome:
    """What happened to one scheduled request (times in seconds,
    relative to the window start; ``sent is None`` = never sent)."""

    request: Request
    sent: "float | None" = None
    done: "float | None" = None
    status: "int | None" = None
    body: bytes = b""
    error: str = ""

    @property
    def latency_ms(self) -> "float | None":
        """Due -> reply read, or ``None`` if never answered."""
        if self.done is None:
            return None
        return (self.done - self.request.due) * 1000.0


def poisson_schedule(
    rng: random.Random, rate: float, window: float, draw
) -> "list[Request]":
    """Arrivals at ``rate``/s over ``window`` s; ``draw(rng)`` gives
    ``(kind, module_id, tenant)`` for each arrival."""
    schedule: "list[Request]" = []
    due = rng.expovariate(rate)
    while due < window:
        kind, module_id, tenant = draw(rng)
        schedule.append(Request(due, kind, module_id, tenant))
        due += rng.expovariate(rate)
    return schedule


class OpenLoopClient:
    """Drives one schedule through ``connections`` keep-alive
    connections to ``host:port``.

    ``run`` returns only after every sender thread has been joined, on
    every path out of it; a sender that cannot be joined within
    ``timeout`` raises.
    """

    def __init__(
        self, host: str, port: int, connections: int = 2, timeout: float = 5.0
    ) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self.timeout = timeout

    def run(self, schedule: "list[Request]", window: float) -> "list[Outcome]":
        outcomes = [Outcome(request) for request in schedule]
        lock = threading.Lock()
        cursor = [0]
        stop = threading.Event()
        start = time.perf_counter() + 0.01

        def take() -> "Outcome | None":
            with lock:
                index = cursor[0]
                if index >= len(outcomes) or stop.is_set():
                    return None
                cursor[0] = index + 1
                return outcomes[index]

        def sender() -> None:
            connection = self._connect()
            try:
                while True:
                    outcome = take()
                    if outcome is None:
                        return
                    delay = start + outcome.request.due - time.perf_counter()
                    if delay > 0:
                        if stop.wait(delay):
                            return
                    if time.perf_counter() - start >= window:
                        return  # window closed: the rest stay unsent
                    connection = self._send(connection, outcome, start)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=sender, name=f"perfbench-conn-{i}")
            for i in range(self.connections)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(window + 2 * self.timeout + 5.0)
        finally:
            stop.set()
            for thread in threads:
                if thread.is_alive():
                    thread.join(2 * self.timeout + 5.0)
        alive = [thread.name for thread in threads if thread.is_alive()]
        if alive:
            raise RuntimeError(f"sender threads did not stop: {alive}")
        return outcomes

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _send(self, connection, outcome: Outcome, start: float):
        request = outcome.request
        method, path = ROUTES[request.kind]
        headers = {"X-Api-Key": request.tenant}
        body = None
        if request.module_id is not None:
            body = json.dumps({"module_id": request.module_id})
            headers["Content-Type"] = "application/json"
        outcome.sent = time.perf_counter() - start
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            outcome.body = response.read()
            outcome.done = time.perf_counter() - start
            outcome.status = response.status
        except (OSError, http.client.HTTPException) as error:
            # A failed request is a failure, never retried: the
            # connection is replaced for the requests after it.
            outcome.error = f"{type(error).__name__}: {error}"
            connection.close()
            connection = self._connect()
        return connection
