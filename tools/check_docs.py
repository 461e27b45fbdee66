#!/usr/bin/env python
"""Grep-based documentation checker: stale references fail CI.

Checks, over README.md, EXPERIMENTS.md, DESIGN.md, and docs/:

1. relative markdown links resolve, including ``#anchor`` fragments
   (GitHub heading slugification);
2. referenced repository file paths exist (``benchmarks/foo.py``,
   ``docs/bar.md`` — tokens with a directory part and a .py/.md suffix,
   checked against the repo root and ``src/``);
3. dotted ``repro.*`` references import: the longest module prefix is
   imported and any remaining components are resolved with getattr, so
   a renamed function or class rots loudly;
4. every ``--flag`` token names a real option of a CLI tool in
   ``src/repro/cli.py`` or of the benchmark runner ``perfbench/run.py``
   (plus a small allowlist for third-party tools like pytest's
   ``--benchmark-only``);
5. the scenario-DSL reference table in ``docs/scenarios.md`` agrees
   with the live schema (``repro.scenario.schema_keys()``) in both
   directions: a documented key the schema dropped fails, and so does
   a schema key the table never mentions.

Zero third-party dependencies; run as
``PYTHONPATH=src python tools/check_docs.py``.  Exit code 0 when the
docs are honest, 1 with one line per stale reference otherwise.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
]

#: flags that belong to tools other than ours (pytest-benchmark, pip).
FLAG_ALLOWLIST = {"--benchmark-only", "--upgrade"}

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)
PATH_RE = re.compile(r"`([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+\.(?:py|md))`")
DOTTED_RE = re.compile(r"\brepro((?:\.[A-Za-z_][A-Za-z_0-9]*)+)\b")
FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]+)\b")


def github_slug(heading: str) -> str:
    """GitHub's anchor slugification, close enough for our headings."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading)  # strip code spans
    heading = heading.lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    return {github_slug(h) for h in HEADING_RE.findall(path.read_text())}


#: sources whose ``"--flag"`` literals define the repository's CLI options
CLI_SOURCES = [REPO / "src" / "repro" / "cli.py", REPO / "perfbench" / "run.py"]


def cli_flags() -> set[str]:
    """Every ``--flag`` literal in the CLI sources."""
    return {flag for source in CLI_SOURCES
            for flag in re.findall(r'"(--[a-z][a-z0-9-]+)"',
                                   source.read_text())}


def check_links(path: Path, text: str, errors: list[str]) -> None:
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        dest = (path.parent / base).resolve() if base else path
        if not dest.exists():
            errors.append(f"{path.name}: broken link target {target!r}")
            continue
        if fragment and dest.suffix == ".md":
            if fragment not in anchors_of(dest):
                errors.append(
                    f"{path.name}: broken anchor {target!r} "
                    f"(no heading slugs to {fragment!r})")


def check_file_paths(path: Path, text: str, errors: list[str]) -> None:
    for ref in PATH_RE.findall(text):
        if (REPO / ref).exists() or (REPO / "src" / ref).exists():
            continue
        errors.append(f"{path.name}: referenced file {ref!r} does not exist")


def check_dotted_refs(path: Path, text: str, errors: list[str]) -> None:
    for tail in set(DOTTED_RE.findall(text)):
        parts = ("repro" + tail).split(".")
        obj, consumed = None, 0
        for i in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
                consumed = i
                break
            except ImportError:
                continue
        if obj is None:
            errors.append(f"{path.name}: module repro{tail} does not import")
            continue
        for attr in parts[consumed:]:
            if not hasattr(obj, attr):
                errors.append(
                    f"{path.name}: repro{tail} is stale "
                    f"({'.'.join(parts[:consumed])} has no {attr!r})")
                break
            obj = getattr(obj, attr)


#: table rows of docs/scenarios.md whose first cell is a backticked
#: schema key path, e.g. ``| `campaigns[].engine` | str | ... |``.
SCHEMA_ROW_RE = re.compile(r"^\|\s*`([a-z_0-9.\[\]]+)`\s*\|", re.MULTILINE)


def check_scenario_schema(errors: list[str]) -> None:
    """Diff docs/scenarios.md's reference table against the live schema."""
    doc = REPO / "docs" / "scenarios.md"
    if not doc.exists():  # already reported as a missing DOC_FILE
        return
    from repro.scenario import schema_keys

    documented = set(SCHEMA_ROW_RE.findall(doc.read_text()))
    live = set(schema_keys())
    for key in sorted(documented - live):
        errors.append(
            f"{doc.name}: documents schema key {key!r} which no longer "
            f"exists in repro.scenario.schema")
    for key in sorted(live - documented):
        errors.append(
            f"{doc.name}: schema key {key!r} exists in "
            f"repro.scenario.schema but is missing from the reference "
            f"table")


def check_flags(path: Path, text: str, errors: list[str],
                known: set[str]) -> None:
    for flag in set(FLAG_RE.findall(text)):
        if flag not in known and flag not in FLAG_ALLOWLIST:
            errors.append(
                f"{path.name}: flag {flag} is not an option of any tool "
                f"in src/repro/cli.py or perfbench/run.py")


def main() -> int:
    errors: list[str] = []
    known_flags = cli_flags()
    for path in DOC_FILES:
        if not path.exists():
            errors.append(f"missing documentation file: {path.name}")
            continue
        text = path.read_text()
        check_links(path, text, errors)
        check_file_paths(path, text, errors)
        check_dotted_refs(path, text, errors)
        check_flags(path, text, errors, known_flags)
    check_scenario_schema(errors)
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(f"docs OK: {len(DOC_FILES)} files checked")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
