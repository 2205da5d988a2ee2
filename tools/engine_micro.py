#!/usr/bin/env python3
"""Micro-benchmarks of the event substrate and of a program build, with
their counts.

Loops over :mod:`repro.simulation`, the polling arbiter and one reduce
support kernel only — no CKs, no links, no planner — plus one loop over
the planner's replication trains, one long stream and two build-only
loops, all on the repo benchmark's own program shapes::

    PYTHONPATH=src python tools/engine_micro.py [--repeat N] [--json]

``tick``        60 processes yielding ``TICK`` (ns per dispatch): the
                calendar and the dispatch loop, nothing else.
``pushpop``     a ``fifo.push`` / ``fifo.pop`` producer–consumer pair in
                lock step (ns per item): per-item stage/take, no parks.
``pushpop_full`` the same pair over a 1-deep FIFO: producer and consumer
                both park on every item (single-condition park/wake and
                the commit that wakes the consumer).
``park5_dense`` sixteen groups of a :class:`PollingArbiter` parking on
                its 5 inputs once per item, one item per group every 8
                cycles (ns per item): the multi-input park/wake on a
                calendar that holds ~8 events per cycle.
``park5_sparse`` one such group: a calendar with at most one event per
                cycle, where a bucket per cycle would cost more than a
                heap entry per event.

``reduce_root`` a :class:`ReduceKernel` root fed one 7-element packet
                every 8 cycles (ns per packet): a cycle to take it, then
                one per element — combined at once, then one ``TICK``
                per element.

``train``       ``stream_shallow``'s 4-hop stream (2^17 floats, ``NOCTUA``,
                it jumps) with ``_Train.validate_round`` timed (ns per
                validated round, failed rounds' time included) and
                ``_Train.sweep`` timed (ns per sweep: one call validates
                one train, chain-closure walks included). Asserted: the
                validated rounds, the publication calls they made — one
                per FIFO a round touched, so two per round on this relay
                chain (its take run and its stage run) — and the
                ``_Train.try_join`` calls, which a chain-closure walk
                repeated on unchanged state would multiply.

``jump_land``   a synthetic 3-FIFO steady chain landing a proven span as
                one ``Fifo.shift`` per FIFO, for ``R`` = 10 and ``R`` =
                10 000 periods (ns per shift): the two must cost the
                same, so what is asserted is the number of list / deque
                entries the FIFOs hold going in plus coming out — what a
                shift reads and writes — which must not depend on ``R``.

``chains``      ``shard_uniform``'s 16-rank uniform stream, 4 096 floats
                per stream on ``NOCTUA_DEEP``, in-process at 1, 2 and 4
                shards (ms per run). Asserted: the jumps, 15 / 14 / 12 —
                every stream, minus the one stream crossing each cut; a
                walk's refusal costs only its own stream. Recorded, not
                asserted: the jumps of the
                bus(4) four-flow program ((0,1), (1,2), (2,1), (3,2),
                ``NOCTUA``, 2^14 floats) and its refusals per chain.

``long_jump``   one 2^25-float (128 MiB) 4-hop ``NOCTUA`` stream,
                width 8 (ms per run, ~0.3 GiB peak). Asserted: it lands
                exactly one jump, ends at cycle 9 587 901 and delivers
                its payload bit for bit — a jump is a time shift, so no
                take budget may cut it into two.

``build_pingpong_1hop`` / ``build_injection`` a build-only
                ``run(max_cycles=0)`` of ``small_msgs``' 1-hop ping-pong
                on ``noctua_bus`` and of its ``injection_R*`` stream on
                ``noctua_torus`` (µs per build). Asserted: the ranks,
                processes and FIFOs built — 2 / 8 / 18 and 2 / 18 / 80,
                the reached fabric of each program; unreached hardware
                coming back fails here.

Seconds are printed next to ``calib`` (the frozen calibration loop of
the repo benchmark) because this box is too noisy for a threshold; the
*counts* — dispatches, parks and commits scheduled per loop — are exact
and asserted: a substrate change that adds an event per item fails here
before it shows up as seconds anywhere.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "profile"))

import calib  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

from repro import (NOCTUA, NOCTUA_DEEP, SMI_ADD, SMI_FLOAT,  # noqa: E402
                   OpDecl, SMIProgram, bus, noctua_bus, noctua_torus)
from repro.network.packet import OpType, Packet  # noqa: E402
from repro.simulation.conditions import TICK, WaitCycles  # noqa: E402
from repro.simulation.engine import Engine  # noqa: E402
from repro.simulation.stats import collect_planner_stats  # noqa: E402
from repro.trace.recorder import TraceRecorder  # noqa: E402
from repro.transport.arbiter import PollingArbiter  # noqa: E402
from repro.transport.collectives import (CollectiveDescriptor,  # noqa: E402
                                         ReduceKernel)
from repro.transport.planner_train import _Train  # noqa: E402

TICK_PROCS, TICK_CYCLES = 60, 2000
PUSHPOP_ITEMS = 20_000
PARK_INPUTS = 5
PARK_ITEMS = 4000          # per group
PARK_GAP = 8               # cycles between items: wake + scan + forward
DENSE_GROUPS = 16
REDUCE_PACKETS = 2000      # 7 SMI_FLOAT elements each, one per 8 cycles

#: Exact event counts per loop: trace events by kind, and the distinct
#: ``(cycle, fifo)`` commits ``Engine._schedule_commit`` was asked for.
#: Per item that is 2 dispatches for ``pushpop``; 4 dispatches, 2 parks
#: and 1 commit for ``pushpop_full``; 4 dispatches, 1 park and 1 commit
#: for the ``park5`` loops (the heap-of-tuples scheduler they replaced
#: armed the same commits here, but one per *stage* on real workloads,
#: where dead waiter entries made every FIFO look waited-on) — three of
#: the four the arbiter's (wake-up scan, grant, settle-and-park). Per
#: packet, ``reduce_root`` is 1 producer step + 8 of the root's (the
#: take's cycle, then one per element).
EXPECTED = {
    "tick": {"dispatch": 120_060, "park": 0, "commits": 0},
    "pushpop": {"dispatch": 40_003, "park": 1, "commits": 1},
    "pushpop_full": {"dispatch": 80_001, "park": 39_999,
                     "commits": 20_000},
    "park5_dense": {"dispatch": 256_032, "park": 64_016,
                    "commits": 64_000},
    "park5_sparse": {"dispatch": 16_002, "park": 4001,
                     "commits": 4000},
    "reduce_root": {"dispatch": 18_002, "park": 1, "commits": 1},
    # Validated rounds, the publication calls they made, and the calls
    # that tried to join a peer CK to a train.
    "train": {"rounds": 387, "publications": 774, "try_joins": 921},
    # Entries held before + after the three shifts, per span length.
    "jump_land": {"r10": 918, "r10000": 918},
    # Uniform-stream jumps per shard count.
    "chains": {"s1": 15, "s2": 14, "s4": 12},
    # The long stream's jumps and end cycle, and its payload check.
    "long_jump": {"jumps": 1, "cycles": 9_587_901, "payload": "intact"},
    # Ranks / processes (two kernels included) / FIFOs a build holds.
    "build_pingpong_1hop": {"ranks": 2, "processes": 8, "fifos": 18},
    "build_injection": {"ranks": 2, "processes": 18, "fifos": 80},
}

#: Build-only loops: the repo benchmark's programs, by name.
BUILDS = {
    "build_pingpong_1hop": workloads.pingpong_op(1, 1),
    "build_injection": workloads.stream_op(
        "injection", noctua_torus, 1, np.zeros(2800, dtype=np.float32)),
}
BUILD_RUNS = 20

#: The ``train`` loop's program.
TRAIN = workloads.stream_op("train", noctua_bus, 4,
                            np.zeros(1 << 17, dtype=np.float32))

#: The ``chains`` row's programs: the uniform stream and its shard
#: counts, and the four flows ``(src, dst)`` on bus(4), one port each.
UNIFORM = workloads.uniform_stream_op(np.zeros((16, 4096), np.float32))
CHAIN_SHARDS = (1, 2, 4)
FOUR_FLOWS = ((0, 1), (1, 2), (2, 1), (3, 2))

#: The ``long_jump`` row's stream: floats and hops.
LONG_JUMP_N, LONG_JUMP_HOPS = 1 << 25, 4

JUMP_FIFOS = 3
JUMP_PPP, JUMP_PERIOD = 16, 32      # one packet per link slot
JUMP_LATENCY, JUMP_LAG = 14, 5      # take = stage + latency + lag
JUMP_PREFIX = 6                     # validated periods landed first
JUMP_RS = (10, 10_000)


def build_tick(engine):
    def proc():
        for _ in range(TICK_CYCLES):
            yield TICK

    for _ in range(TICK_PROCS):
        engine.spawn(proc())
    return TICK_PROCS * (TICK_CYCLES + 1)   # dispatches


def build_pushpop(engine, capacity=4):
    fifo = engine.fifo("f", capacity=capacity)

    def producer():
        for i in range(PUSHPOP_ITEMS):
            yield from fifo.push(i)

    def consumer():
        for _ in range(PUSHPOP_ITEMS):
            yield from fifo.pop()

    engine.spawn(producer())
    engine.spawn(consumer())
    return PUSHPOP_ITEMS


def build_pushpop_full(engine):
    return build_pushpop(engine, capacity=1)


class _Drop:
    """An always-writable output that discards what is staged."""

    writable = True

    def stage(self, _pkt):
        pass


_DROP = _Drop()


def _park_group(engine, g):
    fifos = [engine.fifo(f"g{g}.in{i}", capacity=4)
             for i in range(PARK_INPUTS)]
    arbiter = PollingArbiter(fifos, read_burst=1)

    def producer():
        for i in range(PARK_ITEMS):
            fifos[i % PARK_INPUTS].stage(i)
            yield WaitCycles(PARK_GAP)

    engine.spawn(arbiter.run(lambda _pkt: _DROP, engine), daemon=True)
    engine.spawn(producer())


def build_park5_dense(engine):
    for g in range(DENSE_GROUPS):
        _park_group(engine, g)
    return DENSE_GROUPS * PARK_ITEMS


def build_park5_sparse(engine):
    _park_group(engine, 0)
    return PARK_ITEMS


def build_reduce_root(engine):
    """The root of a 2-rank reduce whose application never contributes:
    nothing is emitted, the root only takes and combines packets."""
    ctrl, app_in, app_out, send_ep, recv_ep = (
        engine.fifo(name, capacity=4)
        for name in ("ctrl", "app_in", "app_out", "send_ep", "recv_ep"))
    epp = SMI_FLOAT.elements_per_packet
    count = REDUCE_PACKETS * epp
    kernel = ReduceKernel(0, 0, SMI_FLOAT,
                          NOCTUA.with_(reduce_credits=count),
                          ctrl, app_in, app_out, send_ep, recv_ep)
    kernel.proc = engine.spawn(kernel.process(engine), daemon=True)
    ctrl.stage(CollectiveDescriptor("reduce", count, 0, (0, 1), SMI_ADD))
    ones = np.ones(epp, dtype=SMI_FLOAT.np_dtype)

    def producer():
        for _ in range(REDUCE_PACKETS):
            recv_ep.stage(Packet(src=1, dst=0, port=0, op=OpType.DATA,
                                 count=epp, payload=ones,
                                 dtype=SMI_FLOAT))
            yield WaitCycles(epp + 1)

    engine.spawn(producer())
    return REDUCE_PACKETS


#: name -> its build function over a bare :class:`Engine`; ``train`` has
#: none — it runs a whole program (:func:`run_train`).
LOOPS = {
    "tick": build_tick,
    "pushpop": build_pushpop,
    "pushpop_full": build_pushpop_full,
    "park5_dense": build_park5_dense,
    "park5_sparse": build_park5_sparse,
    "reduce_root": build_reduce_root,
    "train": None,
}


class _EventCounter:
    """Stands in for the flight recorder: counts emits by kind."""

    def __init__(self):
        self.kinds = Counter()

    def emit(self, _cycle, kind, *_rest, **_kwargs):
        self.kinds[kind] += 1

    def sample(self, *_args):
        pass


def run_train(counting: bool) -> tuple[Counter, dict]:
    """One run of the ``train`` loop: ``rounds`` validated, with
    ``counting`` the ``publications`` those rounds made and the
    ``try_joins``, else the ``sweeps`` made and the seconds spent in
    ``_Train.validate_round`` (``"round"``) and in ``_Train.sweep``
    (``"sweep"``)."""
    counts = Counter()
    spent = {"round": 0.0, "sweep": 0.0}
    originals = {name: getattr(_Train, name)
                 for name in ("validate_round", "sweep", "try_join",
                              "publish_supply", "publish_releases")}
    validate, sweep = originals["validate_round"], originals["sweep"]
    in_round = [False]

    def validate_round(train, sess):
        in_round[0] = True
        t0 = time.perf_counter()
        ok = validate(train, sess)
        spent["round"] += time.perf_counter() - t0
        in_round[0] = False
        counts["rounds"] += ok
        return ok

    def timed_sweep(train):
        t0 = time.perf_counter()
        sweep(train)
        spent["sweep"] += time.perf_counter() - t0
        counts["sweeps"] += 1

    def counted(name, method):
        def wrapper(train, *args):
            if name == "try_joins" or in_round[0]:  # rounds' publications
                counts[name] += 1
            return method(train, *args)
        return wrapper

    _Train.validate_round = validate_round
    if not counting:
        _Train.sweep = timed_sweep
    else:
        _Train.try_join = counted("try_joins", originals["try_join"])
        for name in ("publish_supply", "publish_releases"):
            setattr(_Train, name, counted("publications", originals[name]))
    try:
        TRAIN.run(NOCTUA)
    finally:
        for name, method in originals.items():
            setattr(_Train, name, method)
    return counts, spent


def time_train() -> tuple[float, float]:
    """Nanoseconds per validated round and per sweep of one ``train``
    run, tracing off."""
    counts, spent = run_train(counting=False)
    return (spent["round"] * 1e9 / counts["rounds"],
            spent["sweep"] * 1e9 / counts["sweeps"])


def time_loop(name: str) -> float:
    """Nanoseconds per unit (dispatch or item) of one run, tracing
    off."""
    engine = Engine()
    units = LOOPS[name](engine)
    t0 = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - t0
    assert result.completed
    return wall * 1e9 / units


def count_loop(name: str) -> dict:
    """Exact event counts of one run (a counting recorder attached)."""
    if name == "train":
        return dict(run_train(counting=True)[0])
    engine = Engine()
    engine.trace = counter = _EventCounter()
    armed = set()
    original = engine._schedule_commit

    def schedule_commit(cycle, fifo):
        armed.add((cycle, id(fifo)))
        return original(cycle, fifo)

    engine._schedule_commit = schedule_commit
    LOOPS[name](engine)
    assert engine.run().completed
    assert engine.steps == counter.kinds["dispatch"]
    return {"dispatch": engine.steps, "park": counter.kinds["park"],
            "commits": len(armed)}


def _fifo_entries(fifo) -> int:
    return (len(fifo._staged) + len(fifo._ready) + len(fifo._reserved)
            + len(fifo._occ_stages) + len(fifo._occ_takes))


def jump_land(periods: int) -> tuple[int, float]:
    """Land ``periods`` periods on a steady 3-FIFO chain as one time
    shift per FIFO; ``(entries held before + after, ns per shift)``."""
    engine = Engine()
    n_prefix = JUMP_PREFIX * JUMP_PPP
    stages = [i * JUMP_PERIOD // JUMP_PPP for i in range(n_prefix)]
    floor = JUMP_PREFIX * JUMP_PERIOD   # the producer's frontier
    takes = [s + JUMP_LATENCY + JUMP_LAG for s in stages]
    takes = takes[:sum(1 for t in takes if t < floor)]
    n = periods * JUMP_PPP
    fifos = []
    for k in range(JUMP_FIFOS):
        fifo = engine.fifo(f"hop{k}", capacity=n_prefix,
                           latency=JUMP_LATENCY)
        fifo.stage_burst(list(range(n_prefix)), stages)
        fifo.take_burst(takes)
        fifos.append(fifo)
    rows = list(range(len(takes) + n, n_prefix + n))
    entries = sum(map(_fifo_entries, fifos))
    t0 = time.perf_counter()
    for fifo in fifos:
        fifo.shift(n, periods * JUMP_PERIOD, JUMP_PERIOD, floor, rows)
    wall = time.perf_counter() - t0
    for fifo in fifos:
        assert (fifo.pushes, fifo.pops) == (n_prefix + n, len(takes) + n)
    entries += sum(map(_fifo_entries, fifos))
    return entries, wall * 1e9 / JUMP_FIFOS


def count_jump_land() -> dict:
    return {f"r{periods}": jump_land(periods)[0] for periods in JUMP_RS}


def _uniform_run(shards: int) -> tuple[int, float]:
    """``(jumps, ms)`` of one in-process uniform-stream run."""
    backend = "sharded" if shards > 1 else "sequential"
    t0 = time.perf_counter()
    res, _ = UNIFORM.run(NOCTUA_DEEP.with_(backend=backend, shards=shards))
    wall = time.perf_counter() - t0
    assert res.completed, res.reason
    return collect_planner_stats(res.transport).ff_jumps, wall * 1e3


def count_chains() -> dict:
    return {f"s{k}": _uniform_run(k)[0] for k in CHAIN_SHARDS}


def long_jump() -> tuple[dict, float]:
    """``(jumps / cycles / payload, ms)`` of the long 4-hop stream.

    The payload is compared in place: the benchmark's byte-string check
    would copy both 128 MiB arrays."""
    data = np.arange(LONG_JUMP_N, dtype=np.float32)
    op = workloads.stream_op("long_jump", noctua_bus, LONG_JUMP_HOPS, data)
    t0 = time.perf_counter()
    res, _ = op.run(NOCTUA)
    wall = time.perf_counter() - t0
    assert res.completed, res.reason
    got = res.store(LONG_JUMP_HOPS, "data")
    intact = got.dtype == data.dtype and np.array_equal(got, data)
    return {"jumps": collect_planner_stats(res.transport).ff_jumps,
            "cycles": res.cycles,
            "payload": "intact" if intact else "differs"}, wall * 1e3


def four_flows() -> tuple[int, Counter]:
    """Jumps of the bus(4) four-flow program and its ``unresolved``
    refusals, counted per ``(send endpoint, reason)``."""
    n = 1 << 14
    data = np.arange(n, dtype=np.float32)
    prog = SMIProgram(bus(4), config=NOCTUA.with_(trace=True))
    for port, (src, dst) in enumerate(FOUR_FLOWS):
        def snd(smi, port=port, dst=dst):
            ch = smi.open_send_channel(n, SMI_FLOAT, dst, port)
            yield from ch.push_vec(data, width=8)

        def rcv(smi, port=port, src=src):
            ch = smi.open_recv_channel(n, SMI_FLOAT, src, port)
            yield from ch.pop_vec(n, width=8)

        prog.add_kernel(snd, rank=src, name=f"tx{port}",
                        ops=[OpDecl("send", port, SMI_FLOAT, peer=dst)])
        prog.add_kernel(rcv, rank=dst, name=f"rx{port}",
                        ops=[OpDecl("recv", port, SMI_FLOAT, peer=src)])
    refusals = Counter()
    emit = TraceRecorder.emit

    def counted(recorder, cycle, kind, track, name, dur=0, args=None):
        if kind == "abort" and args["guard"] == "unresolved":
            refusals[(args.get("chain"), args["reason"])] += 1
        return emit(recorder, cycle, kind, track, name, dur, args)

    TraceRecorder.emit = counted
    try:
        res = prog.run(max_cycles=50_000_000)
    finally:
        TraceRecorder.emit = emit
    assert res.completed, res.reason
    return collect_planner_stats(res.transport).ff_jumps, refusals


def count_build(name: str) -> dict:
    """Ranks, processes and FIFOs of one build-only run."""
    res, _ = BUILDS[name].run(NOCTUA, 0)
    return {"ranks": len(res.transport.ranks),
            "processes": len(res.engine.processes),
            "fifos": len(res.engine.fifos)}


def time_build(name: str) -> float:
    """Microseconds per build-only run, averaged over ``BUILD_RUNS``."""
    op = BUILDS[name]
    t0 = time.perf_counter()
    for _ in range(BUILD_RUNS):
        op.run(NOCTUA, 0)
    return (time.perf_counter() - t0) * 1e6 / BUILD_RUNS


def _calib_seconds() -> float:
    t0 = time.perf_counter()
    calib.calibrate()
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    repeat = int(argv[argv.index("--repeat") + 1]) if "--repeat" in argv \
        else 5
    report = {"calib_s": round(min(_calib_seconds() for _ in range(3)), 4)}
    failures = []
    for name in LOOPS:
        counts = count_loop(name)
        if counts != EXPECTED[name]:
            failures.append(f"{name}: counts {counts} != {EXPECTED[name]}")
        if name == "train":
            per_round, per_sweep = zip(*(time_train()
                                         for _ in range(repeat)))
            report[name] = {"ns_per_round": round(min(per_round), 1),
                            "ns_per_sweep": round(min(per_sweep), 1),
                            **counts}
            continue
        report[name] = {
            "ns_per_unit": round(min(time_loop(name)
                                     for _ in range(repeat)), 1),
            **counts}
    counts = count_jump_land()
    if counts != EXPECTED["jump_land"]:
        failures.append(f"jump_land: entries {counts} != "
                        f"{EXPECTED['jump_land']}")
    report["jump_land"] = {
        **{f"ns_per_shift_r{periods}": round(min(
            jump_land(periods)[1] for _ in range(repeat)), 1)
           for periods in JUMP_RS},
        **counts}
    counts = count_chains()
    if counts != EXPECTED["chains"]:
        failures.append(f"chains: jumps {counts} != {EXPECTED['chains']}")
    jumps, refusals = four_flows()
    report["chains"] = {
        **{f"ms_s{k}": round(min(_uniform_run(k)[1] for _ in range(repeat)),
                             1) for k in CHAIN_SHARDS},
        **counts, "four_flow_jumps": jumps,
        "four_flow_refusals": {f"{chain}: {why}": n
                               for (chain, why), n in refusals.items()}}
    counts, wall = long_jump()
    if counts != EXPECTED["long_jump"]:
        failures.append(f"long_jump: {counts} != {EXPECTED['long_jump']}")
    report["long_jump"] = {"ms": round(wall, 1), **counts}
    for name in BUILDS:
        counts = count_build(name)
        if counts != EXPECTED[name]:
            failures.append(f"{name}: built {counts} != {EXPECTED[name]}")
        report[name] = {
            "us_per_build": round(min(time_build(name)
                                      for _ in range(repeat)), 1),
            **counts}
    if "--json" in argv:
        print(json.dumps(report))
    else:
        print(f"calib {report['calib_s']} s (min of 3)")
        for name in LOOPS:
            row = report[name]
            if name == "train":
                print(f"{name:13s} {row['ns_per_round']:9.1f} ns/round  "
                      f"{row['ns_per_sweep']:9.1f} ns/sweep  "
                      f"rounds {row['rounds']}  "
                      f"publications {row['publications']}  "
                      f"try_joins {row['try_joins']}")
                continue
            unit = "dispatch" if name == "tick" else "item"
            print(f"{name:13s} {row['ns_per_unit']:9.1f} ns/{unit}  "
                  f"dispatches {row['dispatch']}  parks {row['park']}  "
                  f"commits {row['commits']}")
        row = report["jump_land"]
        print("jump_land     " + "  ".join(
            f"R={periods}: {row[f'ns_per_shift_r{periods}']:.1f} ns/shift, "
            f"{row[f'r{periods}']} entries" for periods in JUMP_RS))
        row = report["chains"]
        print("chains        " + "  ".join(
            f"{k} shard(s): {row[f'ms_s{k}']:.1f} ms, {row[f's{k}']} jumps"
            for k in CHAIN_SHARDS))
        print(f"  bus(4) four flows: {row['four_flow_jumps']} of "
              f"{len(FOUR_FLOWS)} jump; refusals per chain:")
        for what, n in sorted(row["four_flow_refusals"].items()):
            print(f"    {n:4d}  {what}")
        row = report["long_jump"]
        print(f"long_jump     {row['ms']:9.1f} ms  jumps {row['jumps']}  "
              f"cycles {row['cycles']}  payload {row['payload']}")
        for name in BUILDS:
            row = report[name]
            print(f"{name:20} {row['us_per_build']:9.1f} us/build  "
                  f"ranks {row['ranks']}  processes {row['processes']}  "
                  f"fifos {row['fifos']}")
    for line in failures:
        print("COUNT MISMATCH", line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
