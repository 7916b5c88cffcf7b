#!/usr/bin/env python
"""Serve-chaos acceptance harness (the ``serve-chaos`` CI job).

Three phases against one shared state journal:

**Phase A — SIGKILL under load.**  A 4-replica fleet serves the
1000-client loadgen; two replicas are SIGKILLed mid-load once the run
is deep in steady state.  The contract: zero 5xx, client-visible
transport errors bounded by the killed processes' stranded work
(in-flight + admission-queued requests), every keep-alive reset
absorbed by the loadgen's retry-once rule, and the fleet reconverging
to 4 healthy replicas before a graceful SIGTERM drain (exit 0).

**Phase B — armed chaos.**  A fresh 2-replica fleet on the same
journal runs with ``--chaos-kill-replica`` armed, so every replica's
first process kills itself mid-request at its Nth governed request.
Both replicas die near-simultaneously (balanced load reaches N
together) — that can transiently darken the port, which is the point:
the supervisor must respawn both and the service must answer again.
Asserted: zero 5xx among answered requests, both replicas back alive
on attempt >= 2, and a post-recovery request served.  No transport
bound here — a fully-dark port refuses fresh connections by design.

**Phase C — durability.**  A fresh fleet on the same journal must
serve the memoized answer (``cached: true``) on its very first
request, and the ``serve fleet`` post-mortem must reconstruct the
whole crash/restart/drain story from the file alone.

Exits nonzero with a diagnostic on any miss; stdlib only.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

try:
    from repro.serve import LoadProfile, ServeStateStore, run_loadgen
except ImportError:  # invoked without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.serve import LoadProfile, ServeStateStore, run_loadgen
from repro.wal import FLEET_SCOPE

CLIENTS = 1000
REQUESTS_PER_CLIENT = 20
REPLICAS = 4
MAX_INFLIGHT = 32
MAX_QUEUE = 64
#: SIGKILL two replicas once the fleet has served this many requests —
#: deep enough into steady state that every client's keep-alive
#: connection has answered at least once (a reset then rides the
#: retry-once rule instead of surfacing as a client-visible error).
SIGKILL_AFTER = 5000
#: Phase B: each replica's first process dies mid-request at this
#: governed request (the --chaos-kill-replica fault plan).
CHAOS_KILL_AT = 25

MODULES = (
    "xf.uniprot_to_fasta",
    "xf.uniprot_to_xml",
    "xf.uniprot_to_json",
)


def fail(message: str, server: "subprocess.Popen | None" = None) -> int:
    print(f"serve-chaos: FAIL — {message}", file=sys.stderr)
    if server is not None and server.poll() is None:
        server.kill()
        server.wait()
    return 1


def _served_total(db: str) -> int:
    store = ServeStateStore(db)
    try:
        return sum(
            row["requests_total"] for row in store.heartbeats(FLEET_SCOPE)
        )
    finally:
        store.close()


def _replica_rows(db: str):
    store = ServeStateStore(db)
    try:
        return store.slot_rows(FLEET_SCOPE)
    finally:
        store.close()


def _start_fleet(db: str, replicas: int, chaos: int = 0) -> "tuple":
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--replicas", str(replicas), "--port", "0", "--db", db,
        "--register-all", "--rate", "0",
        "--max-inflight", str(MAX_INFLIGHT), "--max-queue", str(MAX_QUEUE),
        "--queue-timeout", "5.0", "--heartbeat-interval", "0.2",
        "--restart-backoff", "0.1",
    ]
    if chaos:
        command += ["--chaos-kill-replica", str(chaos)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(command, stderr=subprocess.PIPE, env=env)
    banner = server.stderr.readline().decode(errors="replace")
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    if match is None:
        raise RuntimeError(f"no address in fleet banner: {banner!r}")
    host, port = match.group(1), int(match.group(2))
    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            connection = http.client.HTTPConnection(host, port, timeout=5)
            connection.request("GET", "/healthz")
            if connection.getresponse().status == 200:
                connection.close()
                return server, host, port
        except OSError:
            time.sleep(0.2)
    raise RuntimeError("fleet never answered /healthz")


def _generate(host: str, port: int, module_id: str) -> dict:
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", "/v1/generate",
            body=json.dumps({"module_id": module_id}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        payload["_status"] = response.status
        return payload
    finally:
        connection.close()


def _drain(server: "subprocess.Popen", what: str) -> "int | None":
    """SIGTERM the fleet; exit 0 is the graceful-drain verdict."""
    server.send_signal(signal.SIGTERM)
    code = server.wait(timeout=60)
    if code != 0:
        return fail(f"{what} drain exited {code}", server)
    return None


def _load_in_thread(host: str, port: int, profile: LoadProfile):
    outcome: dict = {}

    def drive() -> None:
        try:
            outcome["report"] = run_loadgen(host, port, profile)
        except Exception as error:  # surfaced by the caller
            outcome["error"] = error

    loader = threading.Thread(target=drive, daemon=True)
    loader.start()
    return loader, outcome


def phase_a_sigkill(db: str) -> int:
    server, host, port = _start_fleet(db, REPLICAS)
    print(f"serve-chaos: phase A — {REPLICAS} replicas on {host}:{port}, "
          f"{CLIENTS}-client load, SIGKILL x2 mid-run")
    try:
        # Memoize every module up front (the report store is shared
        # fleet-wide), so the 1000-client wavefront is served from cache
        # instead of stacking uncached work behind the admission queue.
        for module_id in MODULES:
            answer = _generate(host, port, module_id)
            if answer.get("_status") not in (200, 201):
                return fail(
                    f"warmup generate for {module_id} answered "
                    f"{answer.get('_status')}", server,
                )

        profile = LoadProfile(
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            mix={"generate": 0.7, "modules": 0.3},
            module_ids=MODULES,
            tenants=4,
            timeout=60.0,
        )
        loader, outcome = _load_in_thread(host, port, profile)

        # SIGKILL two replicas once real load has landed everywhere.
        deadline = time.time() + 120
        while time.time() < deadline:
            if _served_total(db) >= SIGKILL_AFTER:
                break
            if not loader.is_alive():
                break
            time.sleep(0.1)
        victims = [row for row in _replica_rows(db) if row["alive"]][:2]
        if len(victims) < 2:
            return fail("fewer than 2 live replicas to kill", server)
        for row in victims:
            os.kill(row["pid"], signal.SIGKILL)
        victim_ids = [row["replica"] for row in victims]
        print(f"serve-chaos: SIGKILLed replicas {victim_ids} "
              f"(pids {[row['pid'] for row in victims]}) mid-load")

        loader.join(timeout=300)
        if loader.is_alive():
            return fail("loadgen never finished", server)
        if "error" in outcome:
            return fail(f"loadgen raised: {outcome['error']}", server)
        report = outcome["report"]
        print(report.render())

        if report.n_5xx:
            return fail(f"{report.n_5xx} 5xx answers under chaos", server)
        # Each killed process strands at most its in-flight plus
        # admission-queued requests; everything else must ride the
        # retry-once keep-alive rule.
        bound = len(victims) * (MAX_INFLIGHT + MAX_QUEUE)
        if report.transport_errors > bound:
            return fail(
                f"{report.transport_errors} client-visible transport errors "
                f"exceed the stranded-work bound ({len(victims)} kills x "
                f"({MAX_INFLIGHT} in flight + {MAX_QUEUE} queued) = {bound})",
                server,
            )
        expected = CLIENTS * REQUESTS_PER_CLIENT
        if report.total + report.transport_errors != expected:
            return fail(
                f"requests unaccounted for: {report.total} answered + "
                f"{report.transport_errors} errors != {expected}",
                server,
            )
        if report.stale_retries == 0:
            return fail(
                "no stale-connection retries — the kills never stranded "
                "a keep-alive client, so this run proved nothing", server,
            )
        print(f"serve-chaos: zero 5xx; {report.transport_errors} transport "
              f"errors within bound {bound}; {report.stale_retries} "
              "stale-connection retries absorbed")

        # Convergence: the killed replicas respawned, whole fleet alive.
        deadline = time.time() + 120
        while time.time() < deadline:
            rows = _replica_rows(db)
            if (
                len(rows) == REPLICAS
                and all(row["alive"] for row in rows)
                and all(
                    row["attempt"] >= 2
                    for row in rows if row["replica"] in victim_ids
                )
            ):
                break
            time.sleep(0.2)
        else:
            rows = _replica_rows(db)
            return fail(
                "fleet never reconverged: "
                + ", ".join(
                    f"replica {row['replica']} phase={row['phase']} "
                    f"attempt={row['attempt']} alive={row['alive']}"
                    for row in rows
                ),
                server,
            )
        print(f"serve-chaos: fleet reconverged to {REPLICAS} healthy "
              "replicas after SIGKILL x2")

        verdict = _drain(server, "phase A")
        if verdict is not None:
            return verdict
        print("serve-chaos: phase A SIGTERM drained gracefully (exit 0)")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    return 0


def phase_b_armed_chaos(db: str) -> int:
    server, host, port = _start_fleet(db, 2, chaos=CHAOS_KILL_AT)
    print(f"serve-chaos: phase B — 2 replicas armed to self-kill at "
          f"governed request {CHAOS_KILL_AT}")
    try:
        profile = LoadProfile(
            clients=20,
            requests_per_client=30,
            mix={"generate": 0.7, "modules": 0.3},
            module_ids=MODULES,
            tenants=2,
            timeout=30.0,
        )
        loader, outcome = _load_in_thread(host, port, profile)
        loader.join(timeout=300)
        if loader.is_alive():
            return fail("phase B loadgen never finished", server)
        if "error" in outcome:
            return fail(f"phase B loadgen raised: {outcome['error']}", server)
        report = outcome["report"]
        print(report.render())
        if report.n_5xx:
            return fail(f"{report.n_5xx} 5xx answers from armed chaos",
                        server)

        # Both first processes must have died by their own fault plan
        # and been respawned by the supervisor.
        deadline = time.time() + 120
        while time.time() < deadline:
            rows = [
                row for row in _replica_rows(db) if row["replica"] in (0, 1)
            ]
            if all(row["alive"] and row["attempt"] >= 2 for row in rows):
                break
            time.sleep(0.2)
        else:
            rows = _replica_rows(db)
            return fail(
                "armed chaos fleet never self-healed: "
                + ", ".join(
                    f"replica {row['replica']} phase={row['phase']} "
                    f"attempt={row['attempt']} alive={row['alive']}"
                    for row in rows
                ),
                server,
            )
        answer = _generate(host, port, MODULES[0])
        if answer.get("_status") != 200:
            return fail(
                f"post-recovery request answered {answer.get('_status')}",
                server,
            )
        print("serve-chaos: armed chaos fired on both replicas; supervisor "
              "respawned them and the service answers again")

        verdict = _drain(server, "phase B")
        if verdict is not None:
            return verdict
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    return 0


def phase_c_durability(db: str) -> int:
    revived, host, port = _start_fleet(db, 2)
    try:
        answer = _generate(host, port, MODULES[0])
        if answer.get("_status") != 200 or answer.get("cached") is not True:
            return fail(
                f"restarted fleet did not serve the memoized report: "
                f"status {answer.get('_status')}, cached "
                f"{answer.get('cached')}",
                revived,
            )
        verdict = _drain(revived, "phase C")
        if verdict is not None:
            return verdict
    finally:
        if revived.poll() is None:
            revived.kill()
            revived.wait()
    print("serve-chaos: restarted fleet served cached report on its "
          "first request")

    # The post-mortem must reconstruct the whole story from the file.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    post_mortem = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "fleet", "--db", db],
        capture_output=True, text=True, timeout=60, env=env,
    )
    if post_mortem.returncode != 0:
        return fail(f"serve fleet post-mortem exited "
                    f"{post_mortem.returncode}: {post_mortem.stderr}")
    for needle in ("crash", "restart", "fleet-stop"):
        if needle not in post_mortem.stdout:
            return fail(f"post-mortem timeline missing {needle!r}")
    print("serve-chaos: OK — post-mortem timeline has crash/restart/drain")
    return 0


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="serve-chaos-")
    db = os.path.join(workdir, "fleet.sqlite")
    for phase in (phase_a_sigkill, phase_b_armed_chaos, phase_c_durability):
        code = phase(db)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
