#!/usr/bin/env python3
"""Docs lint for CI: anchors, links, docstrings, cross-references, knobs.

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
* every ``:func:`` / ``:meth:`` / ``:class:`` / ``:data:`` / ``:mod:``
  target in a docstring of any module under ``src/repro`` resolves to an
  existing module, top-level name or ``Class.member`` (AST only, nothing
  is imported), so a rename or a module split cannot leave a docstring
  pointing nowhere;
* every ``HardwareConfig`` field is read as an attribute somewhere under
  ``src/repro/`` outside ``core/config.py`` and is named in the README's
  "Configuration" section — a knob cannot outlive its last reader, nor
  exist undocumented;
* every ``PlannerStats`` field is read as an attribute somewhere under
  ``src/repro/`` — a counter that is only ever incremented pays for
  nothing.

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
    "Boundary exchange",
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


#: A Sphinx cross-reference role and its target (``~`` prefix dropped).
ROLE = re.compile(r":(?:func|meth|class|data|mod):`~?([\w.]+)`")


def _defined(body) -> tuple[set[str], dict[str, set[str]]]:
    """Names a module or class body defines: ``(names, class -> members)``
    — defs, classes, assignment targets, imported names; a class's
    members include its ``__slots__`` and every ``self.x`` it assigns."""
    names: set[str] = set()
    classes: dict[str, set[str]] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
            members = _defined(node.body)[0]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and \
                        isinstance(sub.ctx, ast.Store) and \
                        isinstance(sub.value, ast.Name) and \
                        sub.value.id == "self":
                    members.add(sub.attr)
                elif isinstance(sub, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in sub.targets):
                    members.update(c.value for c in ast.walk(sub.value)
                                   if isinstance(c, ast.Constant))
            classes[node.name] = members
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names, classes


def _docstrings(node, cls=None):
    """``(docstring, enclosing class)`` of ``node`` and everything in it."""
    doc = ast.get_docstring(node, clean=False)
    if doc:
        yield doc, cls
    for child in node.body:
        if isinstance(child, ast.ClassDef):
            yield from _docstrings(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _docstrings(child, cls)


def check_cross_references(root: Path = ROOT) -> list[str]:
    """Docstring roles whose target does not exist (see module docstring).

    An absolute target (``repro.…``) must name a module, ``module.name``
    or ``module.Class.member``; a relative one (``.partitioner``)
    resolves against the docstring's package first. A bare one resolves
    against the enclosing class — outside a class (a module docstring),
    any class of the module — then the same module, then any module under
    ``src/repro`` — lenient about *where*, strict about *whether*.
    """
    src = root / "src"
    trees: dict[str, tuple[Path, ast.Module, str]] = {}
    index: dict[str, tuple[set[str], dict[str, set[str]]]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        package = rel.parts[:-1]
        parts = package if rel.name == "__init__" else rel.parts
        tree = ast.parse(path.read_text(encoding="utf-8"))
        trees[".".join(parts)] = (path, tree, ".".join(package))
        index[".".join(parts)] = _defined(tree.body)

    def lookup(rest, scope) -> bool:
        names, classes = scope
        if len(rest) == 1:
            return rest[0] in names
        return len(rest) == 2 and rest[1] in classes.get(rest[0], ())

    def resolves(target, module, package, cls) -> bool:
        if target.startswith("."):
            rest = target.lstrip(".")
            up = len(target) - len(rest)  # one dot: this package
            base = package.rsplit(".", up - 1)[0] if up > 1 else package
            target = f"{base}.{rest}"
        parts = target.split(".")
        if parts[0] == "repro":
            for cut in range(len(parts), 0, -1):
                scope = index.get(".".join(parts[:cut]))
                if scope is not None:
                    return cut == len(parts) or lookup(parts[cut:], scope)
            return False
        classes = index[module][1]
        if len(parts) == 1 and (
                parts[0] in classes.get(cls, ()) if cls is not None
                else any(parts[0] in m for m in classes.values())):
            return True
        return any(lookup(parts, scope) for scope in index.values())

    errors = []
    for module, (path, tree, package) in trees.items():
        for doc, cls in _docstrings(tree):
            for target in ROLE.findall(doc):
                if not resolves(target, module, package, cls):
                    errors.append(f"{path.relative_to(root)}: dangling "
                                  f"cross-reference `{target}`")
    return errors


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


def attributes_read(root: Path, skip: Path | None = None) -> set[str]:
    """Every attribute name *loaded* somewhere under ``src/repro/`` (not
    counting ``skip``): an assignment or ``x.name += 1`` alone is no
    read."""
    read: set[str] = set()
    for path in (root / "src/repro").rglob("*.py"):
        if path != skip:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load))
    return read


def check_config_knobs(root: Path = ROOT) -> list[str]:
    """``HardwareConfig`` fields nobody reads, or the README omits."""
    config = root / "src/repro/core/config.py"
    fields = config_fields(config)
    if not fields:
        return [f"{config.relative_to(root)}: no HardwareConfig fields found"]
    read = attributes_read(root, skip=config)
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


def check_counters(root: Path = ROOT) -> list[str]:
    """``PlannerStats`` fields that are counted but never read."""
    stats = root / "src/repro/simulation/stats.py"
    fields = config_fields(stats, "PlannerStats")
    if not fields:
        return [f"{stats.relative_to(root)}: no PlannerStats fields found"]
    read = attributes_read(root)
    return [f"PlannerStats.{name}: written but read nowhere under "
            "src/repro/" for name in fields if name not in read]


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
    errors.extend(check_cross_references())
    errors.extend(check_config_knobs())
    errors.extend(check_counters())
    return errors


def main() -> int:
    errors = run_checks()
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    checked = ", ".join(CHECKED_DOCS)
    n_mods = len(list(ROOT.glob(DOCSTRING_GLOB)))
    print(f"checked {checked} + {n_mods} transport module docstrings + "
          f"docstring cross-references + HardwareConfig knobs + "
          f"PlannerStats counters: "
          f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
