"""The cycle-domain tracing & metrics subsystem (``src/repro/trace``).

Unit coverage for the flight recorder (ring wraparound, tails), the
stride-sampled metrics registry (bulk clock jumps, bucket
last-write-wins), the cross-shard segment merge (ordering, counter
namespacing), the canonical timing schema (loud rejection of malformed
entries), and both exporters — plus the integration contracts: tracing
on vs off is cycle-identical on every backend, deadlock dumps carry the
recorder tail, and a 4-shard process-backend run emits one merged
Perfetto-loadable timeline with per-shard cycle tracks, planner ff/abort
events (a refused train's miss among them), and wall-clock
compute/serialize/ipc_wait lanes.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro import SMI_FLOAT, SMIProgram, noctua_bus
from repro.codegen.metadata import OpDecl
from repro.core.config import NOCTUA, hardware_preset
from repro.core.errors import DeadlockError
from repro.simulation.engine import Engine
from repro.simulation.stats import collect_planner_stats
from repro.trace import (
    EVENT_KINDS,
    MetricsRegistry,
    TIMING_FIELDS,
    TraceRecorder,
    merge_segments,
    merge_snapshots,
    new_phase,
    to_jsonl,
    to_perfetto,
    write_trace,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
DEEP = hardware_preset("noctua-deep")


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def test_ring_wraparound_keeps_last_n_oldest_first():
    rec = TraceRecorder(capacity=8)
    for i in range(20):
        rec.emit(i * 10, "stage", "f", f"ev{i}")
    assert len(rec) == 8
    assert rec.emitted == 20
    assert rec.dropped == 12
    events = rec.events()
    # The last 8 emits survive, oldest first, seq strictly increasing.
    assert [ev[4] for ev in events] == [f"ev{i}" for i in range(12, 20)]
    assert [ev[1] for ev in events] == list(range(12, 20))
    # tail() trims from the old end; tail_lines mentions the overwrites.
    assert [ev[4] for ev in rec.tail(3)] == ["ev17", "ev18", "ev19"]
    lines = rec.tail_lines(3)
    assert "overwritten" in lines[0]
    assert "ev19" in lines[-1]


def test_recorder_rejects_degenerate_capacity():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)


def test_event_kinds_are_the_documented_taxonomy():
    assert len(EVENT_KINDS) == len(set(EVENT_KINDS))
    for kind in ("dispatch", "park", "wake", "stage", "take", "grant",
                 "xfer", "span", "ff", "abort", "epoch", "drain"):
        assert kind in EVENT_KINDS


# ----------------------------------------------------------------------
# Metrics registry: stride sampling across bulk jumps
# ----------------------------------------------------------------------
def test_stride_sampling_buckets_and_last_write_wins():
    reg = MetricsRegistry(stride=100)
    reg.sample("occ", 5, 1.0)
    reg.sample("occ", 42, 2.0)    # same bucket: overwrites
    reg.sample("occ", 99, 3.0)    # still the same bucket
    reg.sample("occ", 100, 4.0)   # next bucket
    snap = reg.snapshot()
    assert snap["occ"] == [(0, 3.0), (100, 4.0)]


def test_stride_sampling_survives_bulk_clock_jump():
    # A macro-cruise jump moves the clock by millions of cycles in one
    # event; the series must stay one-point-per-touched-bucket, not
    # one-per-cycle.
    reg = MetricsRegistry(stride=4096)
    reg.sample("cov", 10, 0.1)
    reg.sample("cov", 5_000_000, 0.9)
    reg.sample("cov", 5_000_001, 0.95)
    snap = reg.snapshot()
    assert snap["cov"] == [(0, 0.1), (5_000_000 - 5_000_000 % 4096, 0.95)]


def test_metrics_rejects_degenerate_stride():
    with pytest.raises(ValueError):
        MetricsRegistry(stride=0)


def test_merge_snapshots_unions_names_and_buckets():
    a = {"x": [(0, 1.0), (100, 2.0)], "y": [(0, 5.0)]}
    b = {"x": [(100, 9.0), (200, 3.0)], "z": [(0, 7.0)]}
    merged = merge_snapshots(a, b)
    assert merged["x"] == [(0, 1.0), (100, 9.0), (200, 3.0)]  # b wins
    assert merged["y"] == [(0, 5.0)]
    assert merged["z"] == [(0, 7.0)]


# ----------------------------------------------------------------------
# Canonical timing schema
# ----------------------------------------------------------------------
def test_new_phase_matches_canonical_schema():
    assert tuple(new_phase()) == TIMING_FIELDS


# ----------------------------------------------------------------------
# Cross-shard merge & exporters
# ----------------------------------------------------------------------
def _two_segments():
    a = TraceRecorder(capacity=64, stride=100, shard=0)
    b = TraceRecorder(capacity=64, stride=100, shard=1)
    a.emit(5, "stage", "f0", "a-first")
    b.emit(5, "stage", "f1", "b-first")
    a.emit(9, "span", "planner", "train", dur=40, args={"rounds": 2})
    b.emit(2, "take", "f1", "b-early")
    a.sample("occ/f0", 5, 3.0)
    b.sample("occ/f1", 5, 4.0)
    a.wall_span("compute", 0.0, 0.5)
    b.wall_span("ipc_wait", 0.1, 0.2)
    return [a.segment(), b.segment()]


def test_merge_orders_by_cycle_then_shard_then_seq():
    merged = merge_segments(_two_segments())
    assert merged["shards"] == [0, 1]
    keys = [(ev[0], ev[1], ev[2]) for ev in merged["events"]]
    assert keys == sorted(keys)
    # Same-cycle events: shard 0 before shard 1.
    cyc5 = [ev for ev in merged["events"] if ev[0] == 5]
    assert [ev[1] for ev in cyc5] == [0, 1]
    # Counters are namespaced per shard; wall spans carry their shard.
    assert set(merged["counters"]) == {"s0/occ/f0", "s1/occ/f1"}
    assert {w[0] for w in merged["wall"]} == {0, 1}


def test_perfetto_export_structure():
    merged = merge_segments(_two_segments())
    doc = to_perfetto(merged)
    evs = doc["traceEvents"]
    meta = [e for e in evs if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert {"shard 0 (cycles)", "shard 1 (cycles)",
            "shard 0 (wall)", "shard 1 (wall)"} <= names
    spans = [e for e in evs if e["ph"] == "X"]
    assert any(e["name"] == "train" and e["dur"] == 40 for e in spans)
    counters = [e for e in evs if e["ph"] == "C"]
    assert counters, "metrics series must render as counter tracks"
    # Everything is JSON-serialisable as-is.
    json.dumps(doc)


def test_jsonl_export_parses_line_by_line():
    merged = merge_segments(_two_segments())
    lines = to_jsonl(merged).strip().splitlines()
    header = json.loads(lines[0])
    assert header["shards"] == [0, 1]
    kinds = {json.loads(line)["type"] for line in lines[1:]}
    assert {"event", "counter", "wall"} <= kinds


def test_write_trace_picks_format_from_extension(tmp_path):
    merged = merge_segments(_two_segments())
    pf = tmp_path / "out.json"
    jl = tmp_path / "out.jsonl"
    write_trace(merged, str(pf))
    write_trace(merged, str(jl))
    assert "traceEvents" in json.loads(pf.read_text())
    first = json.loads(jl.read_text().splitlines()[0])
    assert "shards" in first


# ----------------------------------------------------------------------
# Integration: zero-overhead-off, deadlock dumps, reporting
# ----------------------------------------------------------------------
def _stream_end(config, n=512, hops=2, trace_out=None):
    prog = SMIProgram(noctua_bus(), config=config)
    data = np.arange(n, dtype=np.float32)

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
        yield from ch.push_vec(data, width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        out = yield from ch.pop_vec(n, width=8)
        smi.store("ok", bool(np.array_equal(out, data)))
        smi.store("end", smi.cycle)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT, peer=hops)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    res = prog.run(max_cycles=50_000_000, trace_out=trace_out)
    assert res.completed and res.store(hops, "ok")
    return res


@pytest.mark.parametrize("backend", ["sequential", "sharded"])
def test_tracing_is_cycle_identical(backend):
    base = NOCTUA if backend == "sequential" else NOCTUA.with_(
        backend="sharded", shards=2)
    off = _stream_end(base)
    on = _stream_end(base.with_(trace=True))
    assert on.cycles == off.cycles
    assert on.store(2, "end") == off.store(2, "end")
    assert on.engine.fifo_stats() == off.engine.fifo_stats()


def test_sequential_run_attaches_recorder_only_when_enabled():
    assert _stream_end(NOCTUA).engine.trace is None
    rec = _stream_end(NOCTUA.with_(trace=True)).engine.trace
    assert rec is not None and len(rec) > 0
    kinds = {ev[2] for ev in rec.events()}
    assert {"dispatch", "stage", "take", "xfer"} <= kinds


def test_grant_events_are_a_complete_accept_record():
    """On the per-flit plane every accepted packet is one ``grant`` event
    on the input FIFO it came from (the polling ablation derives its
    accept gaps from them), so the count per CK is the arbiter's own."""
    res = _stream_end(NOCTUA.with_(burst_mode=False, trace=True))
    rec = res.engine.trace
    assert rec.dropped == 0
    grants: dict = {}
    for ev in rec.events():
        if ev[2] == "grant":
            grants[ev[3]] = grants.get(ev[3], 0) + 1
    accepted = 0
    for rt in res.transport.ranks.values():
        for ck in (*rt.cks.values(), *rt.ckr.values()):
            arb = ck.arbiter
            assert sum(grants.get(f.name, 0) for f in arb.inputs) \
                == arb.packets_accepted, ck
            accepted += arb.packets_accepted
    assert accepted == sum(grants.values()) > 0


def _accepted(res) -> int:
    total = 0
    for rt in res.transport.ranks.values():
        for ck in (*rt.cks.values(), *rt.ckr.values()):
            arb = ck.arbiter
            assert arb.packets_accepted == sum(f.pops for f in arb.inputs)
            total += arb.packets_accepted
    return total


def test_packets_accepted_is_the_inputs_pops_on_every_plane():
    """No plane counts an accept twice or drops one: per CK the count is
    its inputs' pops, and the fabric total is the specification's on the
    default plane (windows, trains, a jump) and on in-process shards."""
    n = 4096
    flit = _accepted(_stream_end(NOCTUA.with_(burst_mode=False), n=n))
    default = _stream_end(NOCTUA, n=n)
    assert collect_planner_stats(default.transport).windows > 0
    assert _accepted(default) == flit > 0
    sharded = _stream_end(NOCTUA.with_(backend="sharded", shards=2), n=n)
    assert _accepted(sharded) == flit


def test_hit_rate_track_ends_at_the_planner_rate():
    """``planner/hit_rate`` is the planner's one rate, sampled at every
    own attempt: its last sample is the run's ``windows / attempts``."""
    res = _stream_end(NOCTUA.with_(trace=True), n=4096)
    stats = collect_planner_stats(res.transport)
    assert stats.attempts > stats.windows > 0
    track = res.engine.trace.metrics.snapshot()["planner/hit_rate"]
    assert track[-1][1] == round(stats.windows / stats.attempts, 4)


def test_run_writes_trace_to_trace_out(tmp_path):
    out = tmp_path / "run.json"
    _stream_end(NOCTUA.with_(trace=True), trace_out=str(out))
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    # Tracing off: there is no timeline, so nothing is written.
    out2 = tmp_path / "off.json"
    _stream_end(NOCTUA, trace_out=str(out2))
    assert not out2.exists()


def test_deadlock_dump_carries_recorder_tail():
    eng = Engine()
    eng.trace = TraceRecorder(capacity=32)
    f = eng.fifo("stuck", capacity=1)

    def starved():
        item = yield from f.pop()  # nobody ever pushes
        return item

    eng.spawn(starved, "starved-consumer")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    msg = str(exc.value)
    assert "Last trace events before the deadlock" in msg
    assert "park" in msg and "starved-consumer" in msg


def test_deadlock_dump_without_tracing_is_unchanged():
    eng = Engine()
    f = eng.fifo("stuck", capacity=1)

    def starved():
        yield from f.pop()

    eng.spawn(starved, "starved-consumer")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    assert "Last trace events" not in str(exc.value)


def test_macro_ff_jump_and_guard_abort_are_traced():
    """Sequential deep stream: the trace shows the jump — and, with a
    one-shot guard veto installed, the abort that preceded it."""
    from repro.transport import planner_ff

    fired = []

    def veto_once(guard, hop):
        if guard == "budget" and not fired:
            fired.append((guard, hop))
            return True
        return False

    cfg = DEEP.with_(macro_cruise=True, trace=True)
    assert planner_ff._ff_guard_probe is None
    planner_ff._ff_guard_probe = veto_once
    try:
        res = _stream_end(cfg, n=16384, hops=1)
    finally:
        planner_ff._ff_guard_probe = None
    assert fired, "probe never consulted — macro-ff did not arm"
    kinds = {ev[2] for ev in res.engine.trace.events()}
    stats = collect_planner_stats(res.transport)
    assert stats.ff_jumps >= 1
    assert "ff" in kinds
    assert "abort" in kinds
    events = res.engine.trace.events()
    # Trains that probed before the chain resolved report themselves
    # too (guard "unresolved"); the vetoed guard is the one named abort.
    aborts = [ev[6]["guard"] for ev in events if ev[2] == "abort"]
    assert aborts.count("budget") == 1
    assert set(aborts) <= {"budget", "unresolved", "no-period"}


def test_a_refusal_names_its_chain_beside_a_shard_cut(monkeypatch):
    """16-rank uniform stream cut into 2 in-process shards: every
    refused walk is reported with its send endpoint. The train of the
    stream left of the cut also holds the cut stream's CKS sessions;
    they refuse nothing ("sessions outside every chain" is gone), and
    the cut stream's own walk, rank 7's, reports the cut."""
    from repro import bus
    from repro.trace.recorder import TraceRecorder

    refusals = []
    original = TraceRecorder.emit

    def emit(recorder, cycle, kind, track, name, dur=0, args=None):
        if kind == "abort" and args["guard"] == "unresolved":
            refusals.append((args.get("chain"), args["reason"]))
        return original(recorder, cycle, kind, track, name, dur, args)

    monkeypatch.setattr(TraceRecorder, "emit", emit)
    n, ranks = 4096, 16
    prog = SMIProgram(bus(ranks), config=DEEP.with_(
        backend="sharded", shards=2, trace=True))
    data = np.arange(n, dtype=np.float32)

    def sender(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, smi.rank + 1, 0)
        yield from ch.push_vec(data, width=8)

    def receiver(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, smi.rank - 1, 0)
        yield from ch.pop_vec(n, width=8)

    for rank in range(ranks - 1):
        prog.add_kernel(sender, rank=rank, name="tx",
                        ops=[OpDecl("send", 0, SMI_FLOAT, peer=rank + 1)])
        prog.add_kernel(receiver, rank=rank + 1, name="rx",
                        ops=[OpDecl("recv", 0, SMI_FLOAT, peer=rank)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    assert collect_planner_stats(res.transport).ff_jumps == 13
    assert refusals
    assert all(reason != "sessions outside every chain"
               for _chain, reason in refusals)
    assert all(chain is not None for chain, reason in refusals
               if reason != "app lanes not joined")
    assert ("rank7.send_ep0", "cross-shard boundary chain") in refusals


# ----------------------------------------------------------------------
# Acceptance: 4-shard process-backend merged timeline
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_FORK, reason="process backend needs fork")
def test_four_shard_process_trace_merges_onto_one_timeline(tmp_path):
    """One 4-shard forked run, three streams: an intra-shard deep
    stream that macro-fast-forwards (>= 1 jump; a one-shot probe also
    forces a guard abort), and a second shard hosting both an
    intra-shard stream and a cross-shard sender. Those two share rank
    2's CKS, a pattern shape the resolver refuses on both walks: each
    such train reports the refusal once, as a miss. The merged
    trace must carry per-shard cycle tracks, the ff/abort events, and
    wall-clock lanes."""
    from repro.transport import planner_ff

    n = 8192
    cfg = DEEP.with_(backend="process", shards=4, trace=True,
                     macro_cruise=True)
    partition = [[0, 1], [2, 3], [4, 5], [6, 7]]
    prog = SMIProgram(noctua_bus(), config=cfg, partition=partition)
    data = np.arange(n, dtype=np.float32)

    def make(src, dst, port):
        def snd(smi):
            ch = smi.open_send_channel(n, SMI_FLOAT, dst, port)
            yield from ch.push_vec(data, width=8)

        def rcv(smi):
            ch = smi.open_recv_channel(n, SMI_FLOAT, src, port)
            out = yield from ch.pop_vec(n, width=8)
            smi.store(f"ok{port}", bool(np.array_equal(out, data)))

        prog.add_kernel(snd, rank=src, name=f"snd{port}",
                        ops=[OpDecl("send", port, SMI_FLOAT, peer=dst)])
        prog.add_kernel(rcv, rank=dst, name=f"rcv{port}",
                        ops=[OpDecl("recv", port, SMI_FLOAT, peer=src)])

    make(0, 1, 0)   # intra-shard: arms, jumps
    make(2, 3, 1)   # intra-shard inside shard 1
    make(2, 5, 2)   # cross-shard sender: shard 1's trains never arm

    fired = []

    def veto_once(guard, hop):
        if guard == "budget" and not fired:
            fired.append((guard, hop))
            return True
        return False

    # The fork start method makes the workers inherit the probe.
    assert planner_ff._ff_guard_probe is None
    planner_ff._ff_guard_probe = veto_once
    try:
        res = prog.run(max_cycles=200_000_000)
    finally:
        planner_ff._ff_guard_probe = None
    assert res.completed, res.reason
    assert res.store(1, "ok0")
    assert res.store(3, "ok1") and res.store(5, "ok2")

    merged = res.transport.trace
    assert merged is not None
    assert merged["shards"] == [0, 1, 2, 3]
    kinds = {ev[3] for ev in merged["events"]}
    assert "ff" in kinds, "intra-shard stream must land a macro-ff jump"
    assert "abort" in kinds, "vetoed guard must leave an abort event"
    assert "epoch" in kinds
    stats = collect_planner_stats(res.transport)
    assert stats.ff_jumps >= 1 and stats.ff_misses >= 1
    refusals = [ev[7].get("reason") for ev in merged["events"]
                if ev[3] == "abort" and ev[7]["guard"] == "unresolved"]
    assert "pattern shape (multi-input/target session)" in refusals
    # Wall lanes: every worker reports all three phases.
    phases_by_shard = {}
    for shard, phase, t0, t1, _base in merged["wall"]:
        phases_by_shard.setdefault(shard, set()).add(phase)
        assert t1 >= t0
    for shard in range(4):
        assert {"compute", "ipc_wait"} <= phases_by_shard[shard]
    assert any("serialize" in p for p in phases_by_shard.values())
    # And the whole thing renders as one Perfetto-loadable document.
    out = tmp_path / "merged.json"
    write_trace(merged, str(out))
    doc = json.loads(out.read_text())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    for shard in range(4):
        assert f"shard {shard} (cycles)" in names
        assert f"shard {shard} (wall)" in names
