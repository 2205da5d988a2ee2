"""Exporters: Chrome/Perfetto trace-event JSON, compact JSONL, and the
cross-shard timeline merge.

Cycle-domain lanes use the simulated cycle as the trace timestamp (one
Perfetto "process" per shard, one "thread" per track: engine, planner,
each CK/FIFO/link), so a cycle reads as a microsecond in the UI and
relative timing is exact. Wall-clock lanes render as a separate
"process" per shard (``shard N (wall)``) with one thread per phase —
compute / serialize / ipc_wait — timestamped in real microseconds since
the earliest worker's recorder was created, so epoch-protocol stalls
line up across workers.

The merge is deterministic: events sort on ``(cycle, shard, seq)`` —
``seq`` is per-recorder emission order, so same-cycle events within a
shard keep their causal order and cross-shard ties break on the shard
index, never on arrival order over the control pipe.
"""

from __future__ import annotations

import json

from .metrics import merge_snapshots

#: The one timing-dict schema shared by the shard backends' per-worker
#: phase breakdown (``FinalReport.timing`` entries) and the wall-lane
#: exporter. Wall-second phases first, exchange-round counters last.
TIMING_FIELDS = ("compute_s", "serialize_s", "ipc_wait_s",
                 "inner_rounds", "outer_rounds")

#: The wall phases that become exporter lanes (the ``*_s`` fields).
WALL_PHASES = ("compute", "serialize", "ipc_wait")


def new_phase() -> dict:
    """A zeroed per-worker timing dict (the canonical schema)."""
    return {"compute_s": 0.0, "serialize_s": 0.0, "ipc_wait_s": 0.0,
            "inner_rounds": 0, "outer_rounds": 0}


def validate_timing(entry, where: str = "timing entry") -> dict | None:
    """Check one per-shard timing dict against :data:`TIMING_FIELDS`.

    ``None`` and ``{}`` are legitimate placeholders (in-process backends
    have no workers to time) and pass through as ``None``. A *non-empty*
    entry must carry exactly the canonical fields, each numeric or
    ``None`` (an aborted worker reports phases it never measured as
    ``None``; renderers count those as zero) — anything else raises
    ``ValueError`` loudly instead of being papered over with zeros.
    """
    if not entry:
        return None
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected a dict, got {type(entry).__name__}")
    got = set(entry)
    want = set(TIMING_FIELDS)
    if got != want:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise ValueError(
            f"{where}: timing dict schema mismatch"
            + (f", missing {missing}" if missing else "")
            + (f", unexpected {extra}" if extra else ""))
    for key in TIMING_FIELDS:
        value = entry[key]
        if value is not None and (
                not isinstance(value, (int, float))
                or isinstance(value, bool)):
            raise ValueError(
                f"{where}: field {key!r} must be numeric or None, "
                f"got {type(value).__name__}")
    return entry


# ----------------------------------------------------------------------
# Cross-shard merge

def merge_segments(segments: list[dict]) -> dict:
    """Merge per-shard recorder segments onto one timeline.

    Events are tagged with their shard and sorted ``(cycle, shard,
    seq)``; counter series get a ``s<shard>/`` prefix so same-named
    per-shard series stay distinguishable; wall spans keep their shard
    tag and the per-segment recorder creation time so the exporter can
    rebase them onto a common origin.
    """
    events = []
    counters: dict = {}
    wall = []
    dropped = 0
    emitted = 0
    shards = []
    for seg in segments:
        shard = seg["shard"]
        shards.append(shard)
        for ev in seg["events"]:
            # (cycle, shard, seq, kind, track, name, dur, args)
            events.append((ev[0], shard) + tuple(ev[1:]))
        prefix = f"s{shard}/"
        counters = merge_snapshots(
            counters, {prefix + name: pts
                       for name, pts in seg["counters"].items()})
        base = seg.get("wall_base", 0.0)
        for phase, t0, t1 in seg.get("wall", ()):
            wall.append((shard, phase, t0, t1, base))
        dropped += seg.get("dropped", 0)
        emitted += seg.get("emitted", len(seg["events"]))
    events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))
    return {
        "shards": sorted(shards),
        "events": events,
        "counters": counters,
        "wall": wall,
        "dropped": dropped,
        "emitted": emitted,
    }


# ----------------------------------------------------------------------
# Perfetto / Chrome trace-event JSON

def _wall_origin(merged: dict) -> float:
    times = [t0 for _shard, _phase, t0, _t1, _base in merged["wall"]]
    return min(times) if times else 0.0


def to_perfetto(merged: dict) -> dict:
    """Build a Chrome trace-event JSON object from a merged timeline.

    Loadable in ``ui.perfetto.dev`` (or ``chrome://tracing``): one
    process per shard for the cycle domain, one per shard for the wall
    domain, counter tracks from the metrics registry, planner spans as
    slices nested on the planner thread.
    """
    trace_events = []
    # Stable thread ids per (shard, track).
    tids: dict = {}

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == pid]) + 1
            tids[key] = tid
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        return tid

    for shard in merged["shards"]:
        pid = shard + 1
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid,
            "args": {"name": f"shard {shard} (cycles)"},
        })
    for cycle, shard, seq, kind, track, name, dur, args in merged["events"]:
        pid = shard + 1
        ev = {
            "name": name, "cat": kind, "ph": "X" if dur else "i",
            "ts": cycle, "pid": pid, "tid": tid_for(pid, track),
        }
        if dur:
            ev["dur"] = dur
        else:
            ev["s"] = "t"   # instant scope: thread
        a = {"seq": seq}
        if args:
            a.update(args)
        ev["args"] = a
        trace_events.append(ev)

    # Counter tracks (cycle domain, per shard via the s<N>/ prefix).
    for name, pts in sorted(merged["counters"].items()):
        shard = int(name[1:name.index("/")]) if name.startswith("s") \
            and "/" in name and name[1:name.index("/")].isdigit() else 0
        pid = shard + 1
        for cycle, value in pts:
            trace_events.append({
                "ph": "C", "name": name, "pid": pid, "ts": cycle,
                "args": {"value": value},
            })

    # Wall-clock lanes: perf_counter seconds → microseconds since the
    # earliest recorded span, one process per shard, one thread per phase.
    origin = _wall_origin(merged)
    wall_pids = set()
    for shard, phase, t0, t1, _base in merged["wall"]:
        pid = 1001 + shard
        if pid not in wall_pids:
            wall_pids.add(pid)
            trace_events.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "args": {"name": f"shard {shard} (wall)"},
            })
        trace_events.append({
            "name": phase, "cat": "wall", "ph": "X",
            "ts": (t0 - origin) * 1e6, "dur": max((t1 - t0) * 1e6, 0.01),
            "pid": pid, "tid": tid_for(pid, phase),
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "domain": "simulated cycles (1 cycle rendered as 1 us); "
                      "wall lanes in real us",
            "dropped_events": merged["dropped"],
            "emitted_events": merged["emitted"],
        },
    }


def to_jsonl(merged: dict) -> str:
    """The compact line-delimited form: one JSON object per line.

    A ``header`` line, then one ``event`` line per trace event, then
    one ``counter`` line per series, then one ``wall`` line per span.
    """
    lines = [json.dumps({
        "type": "header", "shards": merged["shards"],
        "dropped": merged["dropped"], "emitted": merged["emitted"],
    })]
    for cycle, shard, seq, kind, track, name, dur, args in merged["events"]:
        rec = {"type": "event", "cycle": cycle, "shard": shard,
               "seq": seq, "kind": kind, "track": track, "name": name}
        if dur:
            rec["dur"] = dur
        if args:
            rec["args"] = args
        lines.append(json.dumps(rec))
    for name, pts in sorted(merged["counters"].items()):
        lines.append(json.dumps(
            {"type": "counter", "name": name, "points": pts}))
    origin = _wall_origin(merged)
    for shard, phase, t0, t1, _base in merged["wall"]:
        lines.append(json.dumps(
            {"type": "wall", "shard": shard, "phase": phase,
             "t0_us": (t0 - origin) * 1e6, "t1_us": (t1 - origin) * 1e6}))
    return "\n".join(lines) + "\n"


def write_trace(merged: dict, path: str) -> None:
    """Write a merged timeline to ``path``.

    ``*.jsonl`` gets the compact line form; anything else gets the
    Perfetto-loadable trace-event JSON.
    """
    if path.endswith(".jsonl"):
        data = to_jsonl(merged)
    else:
        data = json.dumps(to_perfetto(merged))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
