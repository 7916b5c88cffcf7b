"""Release everything a run started, on every way out of it.

A :class:`Hygiene` owns one ``ExitStack``: servers and temp directories
register their release on a child stack that is itself registered, so
a set-up torn down early is released once and a kept one at the end.
:meth:`Hygiene.close` unwinds the stack with interrupts blocked, then
confirms that no thread the run started is still alive, that no child
process exists (from ``/proc``) and that the temp root is gone.  Any
survivor is a leak and fails the run.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

#: Signals blocked while releasing, so an interrupt cannot cut it short.
_DEFERRED = {signal.SIGINT, signal.SIGTERM, signal.SIGALRM}
#: Seconds :meth:`Hygiene.close` waits for the run's threads to end
#: before calling them leaked.
THREAD_GRACE_S = 5.0


def child_processes() -> "list[tuple[int, str]]":
    """``(pid, state)`` of every child of this process, zombies
    included, read from ``/proc``."""
    parent = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we listed
        # The command name may hold spaces and parentheses; the fields
        # after its closing parenthesis are state, ppid, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == parent:
            children.append((int(entry), fields[0]))
    return children


class Hygiene:
    """The owner of a run's resources.

    Args:
        tmp_root: Directory for temp files; created on demand, removed
            by :meth:`close` (with its parent, when that is left empty).
            It must not exist beforehand, so that removing it removes
            only what this run wrote.
    """

    def __init__(self, tmp_root: Path) -> None:
        self.tmp_root = Path(tmp_root)
        self._stack = ExitStack()
        self._threads_before = set(threading.enumerate())
        self._made_root = False
        self._stack.callback(self._remove_root)  # runs last

    def child_stack(self) -> ExitStack:
        """A stack released by :meth:`close` unless closed earlier."""
        stack = ExitStack()
        self._stack.enter_context(stack)
        return stack

    def tempdir(self, stack: ExitStack) -> Path:
        """A fresh directory under the temp root, removed with ``stack``."""
        if not self._made_root:
            self.tmp_root.mkdir(parents=True, exist_ok=False)
            self._made_root = True
        path = Path(tempfile.mkdtemp(dir=self.tmp_root))
        stack.callback(shutil.rmtree, path)
        return path

    def _remove_root(self) -> None:
        if not self._made_root:
            return
        self.tmp_root.rmdir()  # fails, and so reports, if anything is left
        try:
            self.tmp_root.parent.rmdir()  # shared by concurrent runs
        except OSError:
            pass

    # ------------------------------------------------------------------
    def close(self) -> "list[str]":
        """Release everything, then return every leak found (empty when
        clean)."""
        problems = []
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, _DEFERRED)
        try:
            try:
                self._stack.close()
            except Exception:  # noqa: BLE001 - reported as a leak below
                problems.append(
                    "release failed:\n" + traceback.format_exc().rstrip()
                )
            problems.extend(self.leaks())
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        return problems

    def leaks(self) -> "list[str]":
        problems = []
        deadline = time.monotonic() + THREAD_GRACE_S
        while True:
            threads = [
                thread
                for thread in threading.enumerate()
                if thread not in self._threads_before and thread.is_alive()
            ]
            if not threads or time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        problems.extend(f"thread still alive: {t.name}" for t in threads)
        problems.extend(
            f"child process still exists: pid {pid} (state {state})"
            for pid, state in child_processes()
        )
        if self._made_root and self.tmp_root.exists():
            problems.append(f"temp files left in {self.tmp_root}")
        return problems
