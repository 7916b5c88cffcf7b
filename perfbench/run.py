#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs with every layer wrapped and prints the per-layer
metrics.  Every figure is printed by name and unit first, then a host
fingerprint line, and last one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 success, 1 the run raised, 2 the program under ``src/``
cannot be imported, 3 a process, thread or temp file outlived the run,
4 the run was interrupted or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Hard limit on one run, seconds; the run is torn down past it, with
#: time left for the teardown to end inside three minutes.
RUN_DEADLINE_S = 150
#: Signals that interrupt a run and are then held during its release.
DEFERRED_SIGNALS = {signal.SIGTERM, signal.SIGINT, signal.SIGALRM}


class Interrupted(Exception):
    """SIGTERM, SIGINT or the run deadline arrived."""


def _interrupt(signum, _frame):
    raise Interrupted(signal.Signals(signum).name)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"none"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_sha(root: Path) -> str:
    """Hash of every file under ``src/``: names the code without git."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(workload, seed: int) -> dict:
    """What a result is comparable under: two results compare only when
    everything but the two code hashes and the seed matches."""
    from perfbench.workloads import config_hash

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "source_sha": source_sha(ROOT),
        "workload": workload.name,
        "config_hash": config_hash(workload),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import workloads
        from perfbench.hygiene import Hygiene
    except ImportError:
        traceback.print_exc()
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    for signum in DEFERRED_SIGNALS:
        signal.signal(signum, _interrupt)
    signal.alarm(RUN_DEADLINE_S)
    hygiene = Hygiene(ROOT / ".perfbench_tmp" / f"run-{os.getpid()}")
    result, status = None, 0
    try:
        result = workloads.run(
            workload, args.seed, args.seconds, bool(args.trace), hygiene
        )
    except Interrupted as reason:
        print(f"interrupted: {reason}", file=sys.stderr)
        status = 4
    except Exception:  # noqa: BLE001 - the run's boundary
        traceback.print_exc()
        status = 1
    finally:
        # A second signal must not cut the release short: hold them
        # until the process exits.
        signal.pthread_sigmask(signal.SIG_BLOCK, DEFERRED_SIGNALS)
        signal.alarm(0)
        leaks = hygiene.close()
    if leaks:
        print("leaked past the run:\n  " + "\n  ".join(leaks), file=sys.stderr)
        return 3
    if result is None:
        return status

    print(f"# workload {workload.name}: {workload.why}")
    for name, value, unit, detail in result.report:
        print(f"{name:<24} {value:>14.6g} {unit:<10} {detail}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<24} {value:>14.6g} {unit}")
    for problem in result.problems:
        print(f"# problem: {problem}")
    print("# fingerprint " + json.dumps(fingerprint(workload, args.seed), sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
