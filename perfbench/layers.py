"""Per-layer spans recorded from outside the program.

A :class:`LayerRecorder` replaces a public method *on one instance*
with a wrapper that times the call, then restores the class's method by
deleting the instance attribute.  Nothing under ``src/`` changes and
untraced runs carry no wrapper at all.

Each thread keeps a stack of open spans.  A span's self time is its
duration minus the time its child spans on the same thread cover; a
span that closes with no parent open adds its duration to the thread's
*top-level* time, which the owner of the enclosing operation (the HTTP
handler) subtracts from its own duration.

A campaign pass's ``runner`` span encloses the runner's build and run;
its self time is the part that no named layer covers
(:data:`UNNAMED_SPANS`).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: ``ServeStateStore`` public methods that write; every other public
#: method except ``close`` reads.  ``record_span`` is recorded apart
#: (``state.span_write``) so span writes show inside ``state.write``.
STATE_WRITES = frozenset({
    "register_module",
    "store_report",
    "configure_tenant",
    "charge_tenant",
    "record_replica",
    "record_event",
    "record_replica_stats",
})
#: Spans whose self time is time no named layer explains.  The HTTP
#: handler's own time (``http.server`` self: trace context, scopes, body
#: parsing) is a layer of its own and not listed: with the client's
#: delayed-ACK stall gone it is about 12% of a ``serve-hot`` request.
UNNAMED_SPANS = frozenset({"runner"})


class LayerRecorder:
    """Accumulates span time and call counts per layer name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.total_s: "dict[str, float]" = defaultdict(float)
        self.calls: "Counter[str]" = Counter()
        self._patched: "list[tuple[object, str]]" = []

    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.top = 0.0
        return local

    def take_top(self) -> float:
        """Top-level span time on this thread since the last call."""
        local = self._thread_state()
        covered, local.top = local.top, 0.0
        return covered

    def add(self, name: str, total: float, self_time: float) -> None:
        with self._lock:
            self.total_s[name] += total
            self.self_s[name] += self_time
            self.calls[name] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
            }

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own calls into the program
        (a constructor, say) as a span called ``name``."""
        local = self._thread_state()
        frame = [0.0]
        local.stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            local.stack.pop()
            if local.stack:
                local.stack[-1][0] += elapsed
            else:
                local.top += elapsed
            self.add(name, elapsed, elapsed - frame[0])

    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        if attr in vars(owner):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr))

    def wrap_observe(self, metrics: object) -> None:
        """Record ``HttpMetrics.observe``'s ``elapsed_ms`` as the
        ``http.server`` root span of one request; its self time is that
        elapsed time minus the top-level spans the handler thread
        recorded meanwhile."""
        original = metrics.observe
        recorder = self

        @functools.wraps(original)
        def observe(endpoint, method, status, elapsed_ms):
            elapsed = elapsed_ms / 1000.0
            recorder.add("http.server", elapsed, elapsed - recorder.take_top())
            return original(endpoint, method, status, elapsed_ms)

        if "observe" in vars(metrics):
            raise RuntimeError(f"{metrics!r}.observe is already wrapped")
        metrics.observe = observe
        self._patched.append((metrics, "observe"))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._patched:
            owner, attr = self._patched.pop()
            delattr(owner, attr)


def instrument_server(recorder: LayerRecorder, server) -> None:
    """Wrap the public entry points one ``AnnotationServer`` reaches."""
    service = server.service
    recorder.wrap_observe(server.metrics)
    recorder.wrap(server.limiter, "check", "ratelimit.check")
    recorder.wrap(server.admission, "acquire", "admission.wait")
    for verb in ("generate", "match", "modules"):
        recorder.wrap(service, verb, f"service.{verb}")
    recorder.wrap(service.generator, "generate", "generation.module")
    recorder.wrap(service.engine, "invoke", "engine.invoke")
    state = server.state
    for attr in dir(type(state)):
        if attr.startswith("_") or attr == "close":
            continue
        if not callable(getattr(type(state), attr)):
            continue
        if attr == "record_span":
            layer = "state.span_write"
        elif attr in STATE_WRITES:
            layer = "state.write"
        else:
            layer = "state.read"
        recorder.wrap(state, attr, layer)


def instrument_campaign(recorder: LayerRecorder, runner, journal) -> None:
    """Wrap the layers under one ``CampaignRunner`` pass; the pass
    itself is the caller's ``runner`` span."""
    recorder.wrap(runner.generator, "generate", "generation.module")
    recorder.wrap(runner.engine, "invoke", "engine.invoke")
    recorder.wrap(journal, "record_done", "journal.commit")
    for attr in ("meta", "entries"):
        recorder.wrap(journal, attr, "journal.read")
    for attr in ("create", "set_status"):
        recorder.wrap(journal, attr, "journal.admin")


def delta(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`LayerRecorder.snapshot` dicts."""
    return {
        key: {
            name: value - before[key].get(name, 0)
            for name, value in after[key].items()
        }
        for key in after
    }
