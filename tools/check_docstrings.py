#!/usr/bin/env python3
"""Docstring coverage gate (no third-party dependencies).

Walks ``src/repro`` with :mod:`ast` and counts docstrings on every
public object — modules, public classes, and public
functions/methods — then enforces a ratcheted floor: the build fails if
coverage drops below ``BASELINE``. When real coverage climbs, raise the
baseline in the same commit so it can never slide back.

What counts as public: anything whose name does not start with ``_``,
plus ``__init__`` methods with non-trivial bodies. ``@overload`` stubs
and single-statement ``__init__``/``super().__init__`` forwarders are
exempt.

Usage::

    python tools/check_docstrings.py            # gate: exit 1 below BASELINE
    python tools/check_docstrings.py --list     # worst offenders, by module
    python tools/check_docstrings.py --by-package
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: The ratchet. Raise it when coverage rises; never lower it to make a
#: failing build pass — write the docstrings instead.
BASELINE = 0.96

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _is_overload(node: ast.AST) -> bool:
    decorators = getattr(node, "decorator_list", [])
    for decorator in decorators:
        target = decorator
        if isinstance(target, ast.Attribute):
            target = target.attr
        elif isinstance(target, ast.Name):
            target = target.id
        if target == "overload":
            return True
    return False


def _trivial_init(node: ast.AST) -> bool:
    """A one-statement ``__init__`` needs no prose of its own."""
    if getattr(node, "name", "") != "__init__":
        return False
    body = [
        stmt for stmt in node.body
        if not isinstance(stmt, (ast.Pass, ast.Expr))
    ]
    return len(body) <= 1


def inspect_file(path: Path) -> list[tuple[str, bool]]:
    """Return ``(qualified_name, has_docstring)`` for public objects."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = path.relative_to(SOURCE_ROOT).with_suffix("")
    module_name = "repro." + ".".join(module.parts)
    if module_name.endswith(".__init__"):
        module_name = module_name[: -len(".__init__")]

    found: list[tuple[str, bool]] = [
        (module_name, ast.get_docstring(tree) is not None)
    ]

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = child.name
                if (
                    not _is_public(name)
                    or _is_overload(child)
                    or _trivial_init(child)
                ):
                    continue
                qualified = f"{prefix}.{name}"
                found.append(
                    (qualified, ast.get_docstring(child) is not None)
                )
                if isinstance(child, ast.ClassDef):
                    walk(child, qualified)

    walk(tree, module_name)
    return found


def collect() -> list[tuple[str, bool]]:
    results: list[tuple[str, bool]] = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        results.extend(inspect_file(path))
    return results


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--list", action="store_true",
        help="print every undocumented public object",
    )
    cli.add_argument(
        "--by-package", action="store_true",
        help="print a coverage table per repro.* package",
    )
    args = cli.parse_args(argv)

    results = collect()
    total = len(results)
    documented = sum(1 for _, ok in results if ok)
    coverage = documented / total if total else 1.0

    if args.by_package:
        packages: dict[str, list[bool]] = {}
        for name, ok in results:
            parts = name.split(".")
            package = ".".join(parts[:2]) if len(parts) > 1 else parts[0]
            packages.setdefault(package, []).append(ok)
        width = max(len(p) for p in packages)
        for package, oks in sorted(
            packages.items(), key=lambda kv: sum(kv[1]) / len(kv[1])
        ):
            rate = sum(oks) / len(oks)
            print(f"{package:<{width}}  {sum(oks):>4}/{len(oks):<4} {rate:6.1%}")
        print()

    if args.list:
        for name, ok in results:
            if not ok:
                print(name)
        print()

    print(
        f"docstring coverage: {documented}/{total} public objects "
        f"({coverage:.1%}); baseline {BASELINE:.1%}"
    )
    if coverage < BASELINE:
        print(
            "FAIL: coverage fell below the ratchet -- document the new "
            "code (see --list) instead of lowering BASELINE",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
