#!/usr/bin/env python3
"""Docs lint for CI: anchors, relative links, docstrings, orphan knobs.

Checks, with no dependencies beyond the standard library:

* every internal anchor link (``[...](#heading)``) in
  ``docs/ARCHITECTURE.md`` resolves to a real heading (GitHub slug
  rules: lowercase, punctuation stripped, spaces to dashes, duplicate
  slugs suffixed ``-1``, ``-2``, ...);
* every relative file link in the checked markdown files points at an
  existing file;
* every module under ``src/repro/transport/`` has a non-empty module
  docstring (the transport layer is the subsystem the architecture doc
  narrates, so its modules must be self-describing);
* every ``HardwareConfig`` field is read as an attribute somewhere under
  ``src/repro/`` outside ``core/config.py`` and is named in the README's
  "Configuration" section — a knob cannot outlive its last reader, nor
  exist undocumented.

Exit status 0 when clean, 1 with one ``ERROR:`` line per finding —
suitable both for the CI docs job and for ``tests/test_docs.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose anchors and relative links are verified.
CHECKED_DOCS = ("docs/ARCHITECTURE.md", "README.md", "benchmarks/README.md")

#: Sections the architecture doc must keep (each is the written contract
#: for one subsystem the code references by name); listed as the heading
#: text, checked as its GitHub anchor slug.
REQUIRED_ARCHITECTURE_HEADINGS = (
    "The SupplySchedule contract",
    "Horizon semantics",
    "Slot economy: reserved slots and pairing",
    "Pattern replication",
    "Macro-cruise fast-forward",
    "Sharded execution & time sync",
    "Boundary wire format & shared-memory rings",
    "Observability & tracing",
    "Invariants the test suite pins",
)

#: Glob of modules that must carry a non-empty module docstring.
DOCSTRING_GLOB = "src/repro/transport/*.py"


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading text."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def markdown_anchors(text: str) -> set[str]:
    """All anchor slugs defined by the headings of ``text``."""
    counts: dict[str, int] = {}
    anchors: set[str] = set()
    for match in re.finditer(r"^#{1,6}\s+(.+?)\s*$", text, re.MULTILINE):
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_markdown(path: Path) -> list[str]:
    """Broken internal anchors and relative links in one markdown file."""
    errors = []
    text = path.read_text(encoding="utf-8")
    anchors = markdown_anchors(text)
    try:
        rel = path.relative_to(ROOT)
    except ValueError:  # files outside the repo (tests use tmp dirs)
        rel = path
    for match in re.finditer(r"\]\(#([^)]+)\)", text):
        if match.group(1) not in anchors:
            errors.append(f"{rel}: broken internal anchor #{match.group(1)}")
    for match in re.finditer(r"\]\((?!#|https?://|mailto:)([^)#\s]+)(?:#[^)]*)?\)",
                             text):
        target = (path.parent / match.group(1)).resolve()
        if not target.exists():
            errors.append(f"{rel}: broken relative link {match.group(1)}")
    return errors


def check_docstrings(glob: str = DOCSTRING_GLOB) -> list[str]:
    """Modules matching ``glob`` that lack a non-empty module docstring."""
    errors = []
    paths = sorted(ROOT.glob(glob))
    if not paths:
        errors.append(f"docstring check matched no files: {glob}")
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        doc = ast.get_docstring(tree)
        if not doc or not doc.strip():
            errors.append(
                f"{path.relative_to(ROOT)}: missing module docstring"
            )
    return errors


def check_required_anchors(path: Path) -> list[str]:
    """Required architecture sections missing from ``path``."""
    if not path.exists():
        return []  # the file-missing error is reported elsewhere
    anchors = markdown_anchors(path.read_text(encoding="utf-8"))
    try:
        rel = path.relative_to(ROOT)
    except ValueError:  # pragma: no cover - tests use tmp dirs
        rel = path
    return [
        f"{rel}: required section missing: {heading!r}"
        for heading in REQUIRED_ARCHITECTURE_HEADINGS
        if github_slug(heading) not in anchors
    ]


def config_fields(path: Path, cls: str = "HardwareConfig") -> list[str]:
    """Field names of dataclass ``cls`` in ``path``, without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)]
    return []


def markdown_section(text: str, heading: str) -> str:
    """Body of the ``## heading`` section of ``text`` ("" when absent)."""
    match = re.search(rf"^## {re.escape(heading)}\s*$(.*?)(?=^## |\Z)", text,
                      re.MULTILINE | re.DOTALL)
    return match.group(1) if match else ""


def check_config_knobs(root: Path = ROOT) -> list[str]:
    """``HardwareConfig`` fields nobody reads, or the README omits."""
    config = root / "src/repro/core/config.py"
    fields = config_fields(config)
    if not fields:
        return [f"{config.relative_to(root)}: no HardwareConfig fields found"]
    read: set[str] = set()
    for path in (root / "src/repro").rglob("*.py"):
        if path != config:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute))
    section = markdown_section(
        (root / "README.md").read_text(encoding="utf-8"), "Configuration")
    errors = []
    for name in fields:
        if name not in read:
            errors.append(f"HardwareConfig.{name}: read nowhere under "
                          "src/repro/ outside core/config.py")
        if f"`{name}`" not in section:
            errors.append(f"HardwareConfig.{name}: not named in the "
                          'README "Configuration" section')
    return errors


def run_checks() -> list[str]:
    """All findings across docs and docstrings (empty when clean)."""
    errors = []
    for name in CHECKED_DOCS:
        path = ROOT / name
        if not path.exists():
            errors.append(f"{name}: file missing")
        else:
            errors.extend(check_markdown(path))
    errors.extend(check_required_anchors(ROOT / "docs/ARCHITECTURE.md"))
    errors.extend(check_docstrings())
    errors.extend(check_config_knobs())
    return errors


def main() -> int:
    errors = run_checks()
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    checked = ", ".join(CHECKED_DOCS)
    n_mods = len(list(ROOT.glob(DOCSTRING_GLOB)))
    print(f"checked {checked} + {n_mods} transport module docstrings + "
          f"HardwareConfig knobs: {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
