#!/usr/bin/env python
"""Set-order lint: catalog code must not depend on set iteration order.

String hashing is salted per process (``PYTHONHASHSEED``), so the
iteration order of a ``set`` of strings changes from run to run — and
between a supervisor and the shard workers it spawns.  A catalog module
whose output depends on that order breaks the byte-identity of campaign
reports.  Two shapes did exactly that:

* ``max(set(seq), key=seq.count)`` breaks count ties by set order;
* ``sum(... for c in set(s))`` adds float terms in set order.

This AST check flags ``max`` / ``min`` / ``sum`` over a bare
``set(...)`` / ``frozenset(...)`` call, and any ``for`` loop or
comprehension iterating one, in ``src/repro/modules/catalog/``.
Wrapping the set in ``sorted(...)`` fixes the order and clears the
finding; order-free uses such as ``len(set(...))`` are never flagged.

Run directly (``python tools/check_set_order.py``); the exit status is
1 when anything is found.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: The code whose output reaches campaign reports.
DEFAULT_ROOT = REPO / "src" / "repro" / "modules" / "catalog"

#: Builtins whose result depends on the order they consume items in.
ORDER_SENSITIVE = {"max", "min", "sum"}


def _is_bare_set(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def find_set_order(source: str, filename: str = "<string>") -> "list[str]":
    """``file:line: message`` for every set-order dependence in
    ``source``."""
    findings = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ORDER_SENSITIVE
            and node.args
            and _is_bare_set(node.args[0])
        ):
            findings.append(
                f"{filename}:{node.lineno}: {node.func.id}() over a bare "
                "set — iterate sorted(set(...))"
            )
        elif isinstance(node, (ast.For, ast.comprehension)) and _is_bare_set(
            node.iter
        ):
            findings.append(
                f"{filename}:{node.iter.lineno}: for-loop over a bare set "
                "— iterate sorted(set(...))"
            )
    return findings


def check_catalog() -> "list[str]":
    """Findings over every file under :data:`DEFAULT_ROOT`."""
    findings = []
    for path in sorted(DEFAULT_ROOT.rglob("*.py")):
        findings.extend(find_set_order(path.read_text(), str(path)))
    return findings


def main() -> int:
    findings = check_catalog()
    for finding in findings:
        print(finding)
    if not findings:
        print("ok   no set-order dependence")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
