"""BENCH_smoke.json schema vs ``benchmarks/README.md``: no drift allowed.

Builds a real (tiny) report with ``benchmarks/run_smoke.py``'s own point
builders, then asserts every emitted field is documented in the README's
schema tables and every documented field is emitted — in both
directions, for the per-point fields, the ``planner`` counters, and the
``headline``. A field added to the runner without documentation (or
documented but no longer emitted) fails here instead of silently
drifting.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"


@pytest.fixture(scope="module")
def run_smoke():
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    return importlib.import_module("run_smoke")


@pytest.fixture(scope="module")
def tiny_report(run_smoke):
    """A real report at the smallest sizes the builders accept."""
    points = run_smoke.run_stream_points((256,), repeats=1)
    points += run_smoke.run_collective_points((16,), repeats=1)
    points += run_smoke.run_small_points(repeats=1)
    points += run_smoke.run_macro_points((256,), repeats=1)
    points += run_smoke.run_trace_points(256, repeats=1)
    # The shard sweep on the cheap in-process backend: same schema as
    # the CI run's forked-worker sweep.
    points += run_smoke.run_shard_points(256, repeats=1, backend="sharded",
                                         shard_counts=(2, 4))
    return {
        "benchmark": "smoke",
        "quick": True,
        "points": points,
        "headline": run_smoke.build_headline(points),
    }


def _expand_braces(name: str) -> list[str]:
    """Expand one ``{a,b}`` group in a documented field name."""
    m = re.search(r"\{([^}]+)\}", name)
    if not m:
        return [name]
    out = []
    for alt in m.group(1).split(","):
        expanded = name[: m.start()] + alt.strip() + name[m.end():]
        out.extend(_expand_braces(expanded))
    return out


def _documented_fields(section_heading: str) -> set[str]:
    """Field names from the first markdown table after ``section_heading``."""
    text = (BENCH_DIR / "README.md").read_text(encoding="utf-8")
    idx = text.find(section_heading)
    assert idx >= 0, f"README section not found: {section_heading}"
    fields: set[str] = set()
    in_table = False
    for line in text[idx:].splitlines()[1:]:
        if line.startswith("|"):
            in_table = True
            cell = line.split("|")[1].strip()
            for name in re.findall(r"`([^`]+)`", cell):
                fields.update(_expand_braces(name))
        elif in_table:
            break  # table ended
    assert fields, f"no fields parsed under: {section_heading}"
    return fields


def test_per_point_fields_match_readme(tiny_report):
    documented = _documented_fields("### Per-point fields")
    emitted = {key for p in tiny_report["points"] for key in p}
    undocumented = emitted - documented
    assert not undocumented, (
        f"fields emitted by run_smoke.py but not documented in "
        f"benchmarks/README.md: {sorted(undocumented)}"
    )
    # Optional fields (hops/bytes/buffers vs ranks) appear on a subset of
    # points, but every documented field must appear on some point.
    unemitted = documented - emitted
    assert not unemitted, (
        f"fields documented in benchmarks/README.md but never emitted: "
        f"{sorted(unemitted)}"
    )


def test_planner_counters_match_readme(tiny_report):
    documented = _documented_fields("### `planner` counters")
    emitted = {key for p in tiny_report["points"]
               for key in p.get("planner", ())}
    assert emitted == documented, (
        f"planner counter drift — emitted-not-documented: "
        f"{sorted(emitted - documented)}, documented-not-emitted: "
        f"{sorted(documented - emitted)}"
    )


def test_headline_fields_match_readme(tiny_report):
    documented = _documented_fields("### `headline` fields")
    emitted = set(tiny_report["headline"])
    assert emitted == documented, (
        f"headline field drift — emitted-not-documented: "
        f"{sorted(emitted - documented)}, documented-not-emitted: "
        f"{sorted(documented - emitted)}"
    )


def test_top_level_fields_match_readme(tiny_report):
    documented = _documented_fields("Top level:")
    assert set(tiny_report) == documented
