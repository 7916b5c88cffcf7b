"""The three workloads: their configuration, set-up, load and checks.

``serve-hot`` and ``serve-cold`` drive an in-process ``AnnotationServer``
through an open-loop rate ladder (:mod:`perfbench.openloop`);
``campaign-serial`` runs whole-catalog ``CampaignRunner`` passes back to
back.  Every workload builds the program's world from the fixed world
seed; the workload seed only shapes the inputs (request schedule,
module popularity, tenants, catalog order).

Each ``run_*`` function returns a :class:`Result`.  Untraced runs fill
``metrics`` with the end-to-end metrics of ``BENCHMARK.json`` and
``report`` with every figure by its full name; traced runs fill
``metrics`` with the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import asdict, dataclass, field

from repro.campaign import CampaignConfig, CampaignJournal, CampaignRunner
from repro.campaign.journal import report_to_dict
from repro.campaign.worker import build_world
from repro.core.generation import ExampleGenerator
from repro.engine import InvocationEngine
from repro.modules.catalog import default_catalog
from repro.serve import AnnotationServer, AnnotationService, ServeConfig

from perfbench.layers import (
    UNNAMED_SPANS,
    LayerRecorder,
    delta,
    instrument_campaign,
    instrument_server,
)
from perfbench.openloop import ROUTES, OpenLoopClient, Outcome, poisson_schedule
from perfbench.stats import finite_or, median, quantile, tail

#: The program's own world seed (the CLI default); never varied.
WORLD_SEED = 2014
#: Offered rates of the serve ladder, requests per second.
RATES = (12, 24, 48, 96, 192, 384, 768)
#: A step passes when this share of its scheduled requests is answered
#: correctly within ``LIMIT_MS`` of its due time and no backlog built.
LIMIT_MS = 250.0
OK_SHARE = 0.99
#: Keep-alive connections of the load generator (the host has 2 CPUs).
CONNECTIONS = 2
#: Client socket timeout; a request that never answers counts at this.
CLIENT_TIMEOUT_S = 5.0
#: Set-ups per untraced run; ``setup_s`` is their ``SETUP_QUANTILE``
#: quantile.  A low quantile of many set-ups skips the first, cold one
#: and the ones that met a slow spell of the host.
SETUPS = 10
SETUP_QUANTILE = 0.25
#: Ladder steps (from the top) whose served rate is the overload
#: throughput: 96 req/s and up, twice the host's capacity or more.
OVERLOAD_STEPS = 4
TENANTS = tuple(f"tenant-{index}" for index in range(8))
#: Per-tenant token budget: far above the top ladder rate, so the
#: limiter charges every request and refuses none.
TENANT_RATE = 2000.0
#: The traced run attributes time to layers within this share.
ATTRIBUTION_TOLERANCE = 0.10


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    memoize: bool
    cache_size: "int | None"
    latency_ms: float
    mix: "dict[str, int]"
    zipf: bool

    kind = "serve"


@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    why: str

    kind = "campaign"


WORKLOADS = {
    "serve-hot": ServeWorkload(
        name="serve-hot",
        why=(
            "Memoized lookups over HTTP: transport, admission, rate-limit "
            "charges and state-store reads do the work while the engine "
            "idles."
        ),
        memoize=True,
        cache_size=4096,
        latency_ms=0.0,
        mix={"generate": 60, "match": 20, "modules": 15, "healthz": 5},
        zipf=True,
    ),
    "serve-cold": ServeWorkload(
        name="serve-cold",
        why=(
            "Every request runs real example generation with 2 ms provider "
            "latency and commits its span trees, so engine and span-write "
            "changes show here."
        ),
        memoize=False,
        cache_size=None,
        latency_ms=2.0,
        mix={"generate": 100},
        zipf=False,
    ),
    "campaign-serial": CampaignWorkload(
        name="campaign-serial",
        why=(
            "Whole-catalog campaign passes with one journal commit per "
            "module and no HTTP, so serving changes must leave it "
            "unchanged."
        ),
    ),
}


def config_hash(workload) -> str:
    """Hash of everything that shapes a workload's runs."""
    record = {
        "workload": asdict(workload),
        "kind": workload.kind,
        "world_seed": WORLD_SEED,
        "rates": RATES,
        "limit_ms": LIMIT_MS,
        "ok_share": OK_SHARE,
        "connections": CONNECTIONS,
        "setups": SETUPS,
        "setup_quantile": SETUP_QUANTILE,
        "tenant_rate": TENANT_RATE,
    }
    canonical = json.dumps(record, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:16]


@dataclass
class Result:
    """What one run measured.

    ``metrics`` maps a name to ``(value, unit)``; ``report`` holds every
    figure by its full name as ``(value, unit, note)`` for the log.
    """

    attempted: int = 0
    #: Failed operations by why they failed (see :func:`check_outcome`;
    #: ``digest`` for a campaign pass).
    failures: "Counter[str]" = field(default_factory=Counter)
    metrics: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    report: "list[tuple[str, float, str, str]]" = field(default_factory=list)
    problems: "list[str]" = field(default_factory=list)

    def note(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.report.append((name, value, unit, detail))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add_steps(self, summaries) -> None:
        for summary in summaries:
            self.attempted += summary.sent
            self.failures.update(summary.failures)

    def note_fail_share(self) -> None:
        share = self.failed / self.attempted if self.attempted else 0.0
        detail = f"{self.failed}/{self.attempted}"
        if self.failures:
            detail += " " + " ".join(
                f"{why}={count}" for why, count in sorted(self.failures.items())
            )
        self.note("fail_share", share, "ratio", detail)

    @property
    def correct(self) -> bool:
        """No operation failed in any way and every check held."""
        return self.failed == 0 and not self.problems


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def step_windows(seconds: float, rates=RATES) -> "list[float]":
    """Windows that schedule the same expected number of requests on
    every step and add up to ``seconds``."""
    inverse = [1.0 / rate for rate in rates]
    total = sum(inverse)
    return [seconds * share / total for share in inverse]


def make_draw(workload: ServeWorkload, module_ids: "list[str]", rng):
    """The seeded request generator: kind by the mix, module by
    popularity (Zipf over a seeded ranking, or uniform), tenant
    uniform."""
    kinds = sorted(workload.mix)
    kind_weights = [workload.mix[kind] for kind in kinds]
    ranking = rng.sample(module_ids, len(module_ids))
    if workload.zipf:
        module_weights = [1.0 / rank for rank in range(1, len(ranking) + 1)]
    else:
        module_weights = [1.0] * len(ranking)

    def draw(rng):
        kind = rng.choices(kinds, weights=kind_weights)[0]
        module_id = None
        if kind in ("generate", "match"):
            module_id = rng.choices(ranking, weights=module_weights)[0]
        return kind, module_id, rng.choice(TENANTS)

    return draw


class References:
    """Expected bodies, computed in this process by a separate
    untraced, unloaded ``AnnotationService`` built from the same world."""

    def __init__(self, module_ids: "list[str]") -> None:
        self.module_ids = sorted(module_ids)
        self.service = AnnotationService(seed=WORLD_SEED, tracing=False)
        for module_id in module_ids:
            self.service.register(module_id)
        self._reports: "dict[str, dict]" = {}
        self._matches: "dict[str, list]" = {}

    def report(self, module_id: str) -> dict:
        if module_id not in self._reports:
            self._reports[module_id] = self.service.generate(module_id)["report"]
        return self._reports[module_id]

    def matches(self, module_id: str) -> list:
        if module_id not in self._matches:
            self._matches[module_id] = self.service.match(module_id)["matches"]
        return self._matches[module_id]

    def body_ok(self, kind: str, module_id: "str | None", body: dict) -> bool:
        if kind == "generate":
            return (
                body.get("module_id") == module_id
                and body.get("report") == self.report(module_id)
            )
        if kind == "match":
            return (
                body.get("module_id") == module_id
                and body.get("matches") == self.matches(module_id)
            )
        if kind == "modules":
            return body.get("modules") == self.module_ids
        if kind == "healthz":
            return (
                body.get("status") == "ok"
                and body.get("registered_modules") == len(self.module_ids)
            )
        raise ValueError(f"unknown request kind {kind!r}")


def check_outcome(outcome: Outcome, references: References) -> str:
    """``""`` for a correct answer, else why it failed: ``transport``,
    ``status``, or ``wrong`` (a 200 whose body is not the reference)."""
    if outcome.error or outcome.status is None:
        return "transport"
    if outcome.status != 200:
        return "status"
    try:
        body = json.loads(outcome.body)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "wrong"
    request = outcome.request
    if not references.body_ok(request.kind, request.module_id, body):
        return "wrong"
    return ""


@dataclass
class StepSummary:
    rate: float
    scheduled: int
    sent: int
    ok: int
    ok_within: int
    failures: "Counter[str]"
    latencies_ms: "list[float]"
    queue_ms: "list[float]"
    rtt_ms: "list[float]"
    #: Window start to the last reply read (the window, if later).
    duration: float

    @property
    def passed(self) -> bool:
        """Enough answered in time, and the sender kept up: the last
        request sent left no later than ``LIMIT_MS`` after it was due."""
        return (
            self.scheduled > 0
            and self.ok_within >= OK_SHARE * self.scheduled
            and bool(self.queue_ms)
            and self.queue_ms[-1] <= LIMIT_MS
        )


def summarize(rate, window, outcomes, references) -> StepSummary:
    """Check every body and reduce one step.  A request that failed or
    was never sent counts as infinitely late."""
    sent = ok = ok_within = 0
    failures = Counter()
    latencies, queue, rtt = [], [], []
    for outcome in outcomes:
        latency = float("inf")
        if outcome.sent is not None:
            sent += 1
            queue.append((outcome.sent - outcome.request.due) * 1000.0)
            verdict = check_outcome(outcome, references)
            if verdict:
                failures[verdict] += 1
            else:
                ok += 1
                latency = outcome.latency_ms
                rtt.append((outcome.done - outcome.sent) * 1000.0)
                ok_within += latency <= LIMIT_MS
        latencies.append(latency)
    last_reply = max((o.done for o in outcomes if o.done is not None), default=0.0)
    return StepSummary(
        rate, len(outcomes), sent, ok, ok_within, failures,
        latencies, queue, rtt, max(window, last_reply),
    )


def warm_up(server, workload: ServeWorkload, module_id: str) -> None:
    """One request of every kind in the mix on a fresh connection."""
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=CLIENT_TIMEOUT_S
    )
    try:
        for kind in sorted(workload.mix):
            method, path = ROUTES[kind]
            body = None
            if method == "POST":
                body = json.dumps({"module_id": module_id})
            connection.request(
                method, path, body=body, headers={"X-Api-Key": TENANTS[0]}
            )
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"warm-up {kind} answered {response.status}")
    finally:
        connection.close()


def build_server(workload: ServeWorkload, module_ids, stack: ExitStack, hygiene):
    """Set up one server: service, durable state, tenants, registration
    and (for a memoizing service) generation of every module."""
    tmp = hygiene.tempdir(stack)
    service = AnnotationService(
        seed=WORLD_SEED,
        memoize=workload.memoize,
        cache_size=workload.cache_size,
        latency_ms=workload.latency_ms,
    )
    server = AnnotationServer(
        service,
        ServeConfig(
            state_db=str(tmp / "state.sqlite"),
            rate=TENANT_RATE,
            burst=TENANT_RATE,
        ),
    )
    stack.callback(server.stop)
    server.start()
    for tenant in TENANTS:
        server.limiter.configure(tenant, TENANT_RATE, TENANT_RATE)
    for module_id in module_ids:
        service.register(module_id)
    if workload.memoize:
        for module_id in module_ids:
            service.generate(module_id)
    warm_up(server, workload, module_ids[0])
    return server


def timed_setups(build, hygiene, count: int) -> "tuple[object, list[float]]":
    """Run ``build(stack)`` ``count`` times; tear down all but the last
    and return it with every set-up time."""
    times, kept = [], None
    for index in range(count):
        stack = hygiene.child_stack()
        started = time.perf_counter()
        kept = build(stack)
        times.append(time.perf_counter() - started)
        if index < count - 1:
            stack.close()
    return kept, times


def note_setup(result: Result, setup_times) -> float:
    setup_s = quantile(setup_times, SETUP_QUANTILE)
    result.note("setup_s", setup_s, "s",
                f"p{100 * SETUP_QUANTILE:.0f} of {len(setup_times)} set-ups")
    return setup_s


def run_ladder(client, schedules, windows, references, after_step=None):
    """Drive each step's schedule in turn (the ladder from its lowest
    rate); ``after_step()`` runs as each window's traffic ends."""
    summaries = []
    for rate, schedule, window in zip(RATES, schedules, windows):
        outcomes = client.run(schedule, window)
        if after_step is not None:
            after_step()
        summaries.append(summarize(rate, window, outcomes, references))
    return summaries


def run_serve(workload: ServeWorkload, seed: int, seconds: float, trace: bool, hygiene) -> Result:
    module_ids = [module.module_id for module in default_catalog()]
    rng = random.Random(seed)
    draw = make_draw(workload, module_ids, rng)
    if trace:
        # Untraced and traced halves replay the same two lowest steps.
        rates = RATES[:2]
        windows = step_windows(seconds / 2.0, rates)
    else:
        rates = RATES
        windows = step_windows(seconds, rates)
    schedules = [
        poisson_schedule(rng, rate, window, draw)
        for rate, window in zip(rates, windows)
    ]
    references = References(module_ids)
    server, setup_times = timed_setups(
        lambda stack: build_server(workload, module_ids, stack, hygiene),
        hygiene, 1 if trace else SETUPS,
    )
    client = OpenLoopClient(
        server.host, server.port, CONNECTIONS, CLIENT_TIMEOUT_S
    )
    result = Result()
    if trace:
        traced_serve(result, server, client, schedules, windows, references)
        return result
    summaries = run_ladder(client, schedules, windows, references)
    result.add_steps(summaries)
    report_serve(result, summaries, setup_times)
    return result


def report_serve(result: Result, summaries, setup_times) -> None:
    timeout_ms = CLIENT_TIMEOUT_S * 1000.0
    setup_s = note_setup(result, setup_times)
    for summary in summaries:
        p50 = finite_or(median(summary.latencies_ms), timeout_ms)
        value, percentile = tail(summary.latencies_ms)
        value = finite_or(value, timeout_ms)
        rate = int(summary.rate)
        detail = (
            f"scheduled={summary.scheduled} sent={summary.sent} "
            f"ok={summary.ok} within={summary.ok_within} "
            f"{'pass' if summary.passed else 'FAIL'}"
        )
        result.note(f"p50_ms.r{rate}", p50, "ms", detail)
        result.note(
            f"tail_ms.r{rate}", value, "ms",
            f"p{percentile:.1f} of n={summary.scheduled}",
        )
    passing = [summary.rate for summary in summaries if summary.passed]
    max_rate = max(passing) if passing else 0.0
    result.note("max_rate_rps", max_rate, "req/s", f"limit {LIMIT_MS:.0f} ms")
    top = summaries[-OVERLOAD_STEPS:]
    throughput = sum(s.ok for s in top) / sum(s.duration for s in top)
    result.note(
        "throughput_per_s", throughput, "1/s",
        f"answered correctly per second at {int(top[0].rate)}+ req/s",
    )
    result.note_fail_share()
    p10 = finite_or(quantile(summaries[0].latencies_ms, 0.10), timeout_ms)
    result.note("p10_ms.r12", p10, "ms", "10th percentile at 12 req/s")
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "p10_ms": (p10, "ms"),
        "throughput_per_s": (throughput, "1/s"),
    }


def traced_serve(result, server, client, schedules, windows, references) -> None:
    """The per-layer run: the two lowest steps untraced, then again
    with every layer wrapped."""
    before = server.metrics.snapshot()["latency"]
    untraced = run_ladder(client, schedules, windows, references)
    after = server.metrics.snapshot()["latency"]
    untraced_server_ms = (after["sum_ms"] - before["sum_ms"]) / max(
        1, after["count"] - before["count"]
    )
    recorder = LayerRecorder()
    marks = [recorder.snapshot()]
    shed_before = server.admission.snapshot()["shed_total"]
    instrument_server(recorder, server)
    try:
        traced = run_ladder(
            client, schedules, windows, references,
            after_step=lambda: marks.append(recorder.snapshot()),
        )
    finally:
        recorder.restore()
    shed = server.admission.snapshot()["shed_total"] - shed_before
    result.add_steps(untraced + traced)
    whole = delta(marks[-1], marks[0])
    first = delta(marks[1], marks[0])
    n = max(1, whole["calls"].get("http.server", 0))
    n_first = max(1, first["calls"].get("http.server", 0))
    rtt_ms = [x for s in traced for x in s.rtt_ms]
    queue_ms = [x for s in traced for x in s.queue_ms]
    server_s = whole["total_s"].get("http.server", 0.0)
    transport_s = sum(rtt_ms) / 1000.0 - server_s
    traced_server_ms = 1000.0 * server_s / n
    layer_metrics(result, whole, first, n, n_first, extra={
        "client.queue_ms": (sum(queue_ms) / max(1, len(queue_ms)), "ms"),
        "client.rtt_ms": (sum(rtt_ms) / max(1, len(rtt_ms)), "ms"),
        "http.server_ms": (traced_server_ms, "ms"),
        "http.transport_ms": (1000.0 * transport_s / n, "ms"),
        "admission.shed": (float(shed), "count"),
        "trace.overhead": (
            traced_server_ms / untraced_server_ms if untraced_server_ms else 0.0,
            "ratio",
        ),
    })
    attribute(result, sum(rtt_ms) / 1000.0, whole, transport_s)


# ----------------------------------------------------------------------
# Per-layer metrics shared by both kinds
# ----------------------------------------------------------------------
#: Layer times reported per operation: (metric, span, self or total).
LAYER_TIMES = (
    ("http.handler_ms", "http.server", "self_s"),
    ("ratelimit.check_ms", "ratelimit.check", "total_s"),
    ("admission.wait_ms", "admission.wait", "total_s"),
    ("service.generate_ms", "service.generate", "self_s"),
    ("service.match_ms", "service.match", "self_s"),
    ("service.modules_ms", "service.modules", "self_s"),
    ("generation.module_ms", "generation.module", "self_s"),
    ("engine.invoke_ms", "engine.invoke", "self_s"),
    ("state.read_ms", "state.read", "total_s"),
    ("state.span_write_ms", "state.span_write", "total_s"),
    ("journal.commit_ms", "journal.commit", "total_s"),
    ("journal.read_ms", "journal.read", "total_s"),
    ("journal.admin_ms", "journal.admin", "total_s"),
    ("runner.self_ms", "runner", "self_s"),
)

#: Every per-layer metric with its unit, in reporting order.
PER_LAYER = (
    ("client.queue_ms", "ms"),
    ("client.rtt_ms", "ms"),
    ("http.server_ms", "ms"),
    ("http.handler_ms", "ms"),
    ("http.transport_ms", "ms"),
    ("ratelimit.check_ms", "ms"),
    ("state.read_ms", "ms"),
    ("state.reads_per_req", "count"),
    ("state.write_ms", "ms"),
    ("state.writes_per_req", "count"),
    ("state.span_write_ms", "ms"),
    ("admission.wait_ms", "ms"),
    ("admission.shed", "count"),
    ("service.generate_ms", "ms"),
    ("service.match_ms", "ms"),
    ("service.modules_ms", "ms"),
    ("engine.invoke_ms", "ms"),
    ("engine.invocations_per_req", "count"),
    ("engine.invocations_per_module", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("generation.module_ms", "ms"),
    ("journal.commit_ms", "ms"),
    ("journal.read_ms", "ms"),
    ("journal.admin_ms", "ms"),
    ("runner.self_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.attributed", "ratio"),
)


def layer_metrics(result, whole, first, n, n_first, extra, cache_hit_ratio=0.0) -> None:
    """Fill ``result.metrics`` with every per-layer metric.

    Times are per operation (a request, or a module of a campaign pass)
    over the whole traced window; counts per operation come from the
    first traced step (serve) or pass (campaign), whose inputs the seed
    fixes exactly.
    """
    metrics = {name: (0.0, unit) for name, unit in PER_LAYER}
    for metric, span, kind in LAYER_TIMES:
        metrics[metric] = (1000.0 * whole[kind].get(span, 0.0) / n, "ms")
    writes = whole["total_s"].get("state.write", 0.0) + whole["total_s"].get(
        "state.span_write", 0.0
    )
    metrics["state.write_ms"] = (1000.0 * writes / n, "ms")
    calls = first["calls"]
    metrics["state.reads_per_req"] = (calls.get("state.read", 0) / n_first, "count")
    metrics["state.writes_per_req"] = (
        (calls.get("state.write", 0) + calls.get("state.span_write", 0)) / n_first,
        "count",
    )
    invocations = calls.get("engine.invoke", 0)
    modules = calls.get("generation.module", 0)
    metrics["engine.invocations_per_req"] = (invocations / n_first, "count")
    metrics["engine.invocations_per_module"] = (
        invocations / modules if modules else 0.0, "count",
    )
    metrics["engine.cache_hit_ratio"] = (cache_hit_ratio, "ratio")
    metrics.update(extra)
    result.metrics = metrics


def attribute(result: Result, end_to_end_s: float, whole, unspanned_s: float) -> None:
    """Check that the named layers' self times (plus time no span
    covers by definition, such as transport) add up to the end-to-end
    time.  The self time of an :data:`UNNAMED_SPANS` span counts as
    unattributed, so a missing wrapper under it shows."""
    attributed_s = unspanned_s + sum(
        self_s for name, self_s in whole["self_s"].items()
        if name not in UNNAMED_SPANS
    )
    share = attributed_s / end_to_end_s if end_to_end_s > 0 else 0.0
    result.metrics["trace.attributed"] = (share, "ratio")
    if abs(share - 1.0) > ATTRIBUTION_TOLERANCE:
        result.problems.append(
            f"named layers cover {share:.1%} of the end-to-end time "
            f"(allowed 100% +/- {ATTRIBUTION_TOLERANCE:.0%})"
        )
    for name in sorted(whole["self_s"]):
        self_s = whole["self_s"][name]
        result.note(f"self.{name}", 1000.0 * self_s, "ms",
                    f"{self_s / end_to_end_s:.1%} of end-to-end")
    if unspanned_s:
        result.note("self.http.transport", 1000.0 * unspanned_s, "ms",
                    f"{unspanned_s / end_to_end_s:.1%} of end-to-end")


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------
def reference_digest(catalog, config: CampaignConfig) -> str:
    """The digest a campaign over ``catalog`` must produce, computed by
    generating every module directly, with no journal in between."""
    ctx, _catalog, pool = build_world(config.seed)
    engine = InvocationEngine(config.engine_config())
    generator = ExampleGenerator(ctx, pool, seed=config.seed, engine=engine)
    canonical = json.dumps(
        [report_to_dict(generator.generate(module)) for module in catalog],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def campaign_pass(world, catalog, config, tmp, index, recorder=None):
    """One whole-catalog pass on a fresh WAL journal.

    Returns ``(seconds, digest, modules, cache_stats)``; the journal is
    closed and deleted before returning.
    """
    ctx, _catalog, pool = world
    span = recorder.span if recorder is not None else lambda name: nullcontext()
    path = tmp / f"pass-{index}.sqlite"
    started = time.perf_counter()
    with span("journal.admin"):
        journal = CampaignJournal(path)
    try:
        with span("runner"):
            runner = CampaignRunner(ctx, catalog, pool, journal, config)
            if recorder is not None:
                instrument_campaign(recorder, runner, journal)
            result = runner.run(f"pass-{index}")
    finally:
        with span("journal.admin"):
            journal.close()
        if recorder is not None:
            recorder.restore()
    elapsed = time.perf_counter() - started
    for suffix in ("", "-wal", "-shm"):
        (tmp / f"pass-{index}.sqlite{suffix}").unlink(missing_ok=True)
    cache = runner.engine.cache.stats if runner.engine.cache is not None else None
    return elapsed, result.digest(), len(result.reports), cache


def run_campaign(workload: CampaignWorkload, seed: int, seconds: float, trace: bool, hygiene) -> Result:
    config = CampaignConfig(seed=WORLD_SEED)
    catalog = list(default_catalog())
    random.Random(seed).shuffle(catalog)
    expected = reference_digest(catalog, config)
    tmp = hygiene.tempdir(hygiene.child_stack())
    counter = iter(range(10**9))

    result = Result()

    def one_pass(world, recorder=None):
        result.attempted += 1
        elapsed, digest, modules, cache = campaign_pass(
            world, catalog, config, tmp, next(counter), recorder
        )
        if digest != expected or modules != len(catalog):
            result.failures["digest"] += 1
        return elapsed, cache

    def build(_stack):
        world = build_world(config.seed)
        one_pass(world)  # the warm-up pass
        return world

    world, setup_times = timed_setups(build, hygiene, 1)
    started = time.perf_counter()
    deadline = started + seconds
    if not trace:
        # The other set-ups are spread over the run, so that their low
        # quantile meets the same spells of host speed as the passes.
        times = [one_pass(world)[0]]
        while time.perf_counter() < deadline:
            due = started + seconds * len(setup_times) / SETUPS
            if time.perf_counter() >= due:
                setup_times += timed_setups(build, hygiene, 1)[1]
            times.append(one_pass(world)[0])
        while len(setup_times) < SETUPS:
            setup_times += timed_setups(build, hygiene, 1)[1]
        report_campaign(result, times, len(catalog), setup_times)
        return result
    # Untraced and traced passes alternate, so drift in the host's
    # speed falls on both sides of the overhead ratio alike.
    recorder = LayerRecorder()
    marks = [recorder.snapshot()]
    untraced, traced, caches = [], [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(one_pass(world)[0])
        elapsed, cache = one_pass(world, recorder)
        marks.append(recorder.snapshot())
        traced.append(elapsed)
        caches.append(cache)
    whole = delta(marks[-1], marks[0])
    first = delta(marks[1], marks[0])
    n = len(catalog) * len(traced)
    hits = sum(c.hits + c.negative_hits for c in caches if c is not None)
    lookups = sum(c.lookups for c in caches if c is not None)
    layer_metrics(
        result, whole, first, n, len(catalog),
        extra={"trace.overhead": (median(traced) / median(untraced), "ratio")},
        cache_hit_ratio=hits / lookups if lookups else 0.0,
    )
    attribute(result, sum(traced), whole, 0.0)
    return result


def report_campaign(result: Result, times, n_modules, setup_times) -> None:
    setup_s = note_setup(result, setup_times)
    p50 = median(times)
    value, percentile = tail(times)
    throughput = n_modules * len(times) / sum(times)
    result.note("modules_per_s", throughput, "modules/s",
                f"{len(times)} passes of {n_modules} modules")
    result.note("campaign_p10_s", quantile(times, 0.10), "s")
    result.note("campaign_p50_s", p50, "s")
    result.note("campaign_tail_s", value, "s",
                f"p{percentile:.1f} of n={len(times)}")
    result.note_fail_share()
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "p10_ms": (1000.0 * quantile(times, 0.10), "ms"),
        "throughput_per_s": (throughput, "1/s"),
    }


def run(workload, seed: int, seconds: float, trace: bool, hygiene) -> Result:
    if workload.kind == "serve":
        return run_serve(workload, seed, seconds, trace, hygiene)
    return run_campaign(workload, seed, seconds, trace, hygiene)
