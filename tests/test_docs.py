"""Docs lint as part of tier-1: keep the architecture doc navigable.

Runs the same checks as the CI docs job (``tools/check_docs.py``):
internal anchors of ``docs/ARCHITECTURE.md`` resolve, relative links in
the checked markdown files exist, every ``src/repro/transport`` module
carries a non-empty docstring, every docstring cross-reference under
``src/repro`` names something that exists, every ``HardwareConfig``
field has a reader and a README entry, and every ``PlannerStats`` field
has a reader.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402


def test_docs_clean():
    errors = check_docs.run_checks()
    assert not errors, "\n".join(errors)


def test_github_slugs():
    assert check_docs.github_slug("The SupplySchedule contract") == \
        "the-supplyschedule-contract"
    assert check_docs.github_slug("Plan / cascade / replicate") == \
        "plan--cascade--replicate"


def test_checker_flags_broken_anchor(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("# Title\n\nsee [x](#missing) and [y](./nope.md)\n")
    errors = check_docs.check_markdown(bad)
    assert any("#missing" in e for e in errors)
    assert any("nope.md" in e for e in errors)


def test_checker_flags_missing_required_section(tmp_path):
    """Dropping a contract section (e.g. 'Macro-cruise fast-forward') from
    the architecture doc is a lint error, not a silent doc rot."""
    doc = tmp_path / "ARCHITECTURE.md"
    doc.write_text("# Architecture\n\n## Pattern replication\n\ntext\n")
    errors = check_docs.check_required_anchors(doc)
    assert any("Macro-cruise fast-forward" in e for e in errors)
    assert any("Horizon semantics" in e for e in errors)
    assert not any("Pattern replication" in e for e in errors)


def test_required_sections_present_in_real_doc():
    errors = check_docs.check_required_anchors(
        check_docs.ROOT / "docs" / "ARCHITECTURE.md")
    assert not errors, "\n".join(errors)


def test_checker_flags_orphan_and_undocumented_knob(tmp_path):
    """A field nobody reads, or the README omits, fails the lint."""
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "config.py").write_text(
        "class HardwareConfig:\n"
        "    used: int = 1\n    orphan: int = 2\n    hidden: int = 3\n"
        "    def check(self):\n        return self.orphan\n")
    (tmp_path / "src" / "repro" / "user.py").write_text(
        '"""Mentions config.orphan in prose only."""\n'
        "def f(config):\n    return config.used + config.hidden\n")
    (tmp_path / "README.md").write_text(
        "# T\n\n## Configuration\n\n`used`, `orphan`\n\n## Other\n\n`hidden`\n")
    errors = check_docs.check_config_knobs(tmp_path)
    assert len(errors) == 2
    assert any("orphan" in e and "read nowhere" in e for e in errors)
    assert any("hidden" in e and "README" in e for e in errors)


def test_checker_flags_counter_that_is_only_written(tmp_path):
    """A ``PlannerStats`` field that is only incremented fails the lint;
    one read anywhere (a property of the class itself counts) passes."""
    sim = tmp_path / "src" / "repro" / "simulation"
    sim.mkdir(parents=True)
    (sim / "stats.py").write_text(
        "class PlannerStats:\n"
        "    shown: int = 0\n    derived: int = 0\n    orphan: int = 0\n"
        "    @property\n    def rate(self):\n        return self.derived\n")
    (tmp_path / "src" / "repro" / "planner.py").write_text(
        '"""Reports stats.orphan in prose only."""\n'
        "def book(stats):\n    stats.orphan += 1\n    stats.shown += 1\n"
        "    stats.derived = 2\n    return stats.shown\n")
    errors = check_docs.check_counters(tmp_path)
    assert len(errors) == 1 and "PlannerStats.orphan" in errors[0], errors


def test_checker_flags_dangling_cross_reference(tmp_path):
    """The two stale ``replicate_window`` roles the planner split would
    have carried along (the check fails on its parent commit), a
    reference from outside ``transport/`` to a name that moved out of
    ``repro.transport.planner``, and a bare name no module defines; roles
    that resolve — bare, against the enclosing class, or absolute — are
    left alone."""
    transport = tmp_path / "src" / "repro" / "transport"
    transport.mkdir(parents=True)
    for pkg in (transport.parent, transport):
        (pkg / "__init__.py").write_text("")
    (transport / "planner.py").write_text(
        '"""First tries :func:`replicate_window`, see :mod:`repro.transport`.\n'
        '"""\nfrom .planner_train import replicate_train\n\n'
        "class SupplyPlanner:\n"
        '    """:meth:`plan` calls :func:`replicate_train`; cursors are\n'
        '    :class:`~repro.transport.planner_train._Cursor` objects."""\n'
        "    __slots__ = ('budget',)\n"
        "    def plan(self):\n"
        '        """Spends :data:`budget` via :func:`replicate_window`."""\n')
    (transport / "planner_train.py").write_text(
        '"""Trains."""\nclass _Cursor:\n    def commit(self):\n        pass\n'
        "def replicate_train():\n    pass\n")
    (transport.parent / "fifo.py").write_text(
        '"""Only :meth:`repro.transport.planner._Cursor.commit` advances\n'
        'it (:meth:`repro.transport.planner_train._Cursor.commit` does);\n'
        ':func:`nowhere_at_all` is checked outside ``transport/`` too."""\n')
    errors = check_docs.check_cross_references(tmp_path)
    assert len(errors) == 4, errors
    assert any("fifo.py" in e and "`nowhere_at_all`" in e for e in errors)
    assert sum("planner.py" in e and "`replicate_window`" in e
               for e in errors) == 2
    assert any("fifo.py" in e
               and "`repro.transport.planner._Cursor.commit`" in e
               for e in errors)


def test_checker_resolves_relative_modules_and_module_level_members(
        tmp_path):
    """A relative ``:mod:`` resolves against the docstring's package, and
    a bare member name in a module docstring against the module's own
    classes; a relative module or member that does not exist is still
    flagged."""
    shard = tmp_path / "src" / "repro" / "shard"
    shard.mkdir(parents=True)
    (shard.parent / "__init__.py").write_text("")
    (shard / "__init__.py").write_text(
        '"""Cuts: :mod:`.partitioner`; gone: :mod:`.splitter`."""\n')
    (shard / "partitioner.py").write_text(
        '"""See :mod:`.partitioner` and :meth:`cut` (:meth:`glue` is\n'
        'defined nowhere)."""\n'
        "class Partition:\n    def cut(self):\n        pass\n")
    errors = check_docs.check_cross_references(tmp_path)
    assert sorted(e.split(": ", 1)[1] for e in errors) == [
        "dangling cross-reference `.splitter`",
        "dangling cross-reference `glue`"], errors
