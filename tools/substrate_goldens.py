#!/usr/bin/env python3
"""Golden pins for the per-flit specification plane and the default plane.

Every equivalence test and the benchmark's verification pass recompute
their reference *from the same tree*, so a change to the event
substrate (``simulation/engine.py``, ``conditions.py``, ``fifo.py``)
that shifts both planes alike passes all of them. This tool pins the
per-flit plane against itself across commits: it runs a handful of
small programs with ``burst_mode=False`` and ``trace=True`` and records
for each the end cycle, every FIFO's ``(pushes, pops, max_occupancy)``
and the number of trace events of each kind::

    PYTHONPATH=<checkout>/src python tools/substrate_goldens.py           # print
    PYTHONPATH=<checkout>/src python tools/substrate_goldens.py --write   # tests/substrate_goldens.json

``--plane default`` pins the planner's *host-side* behaviour the same
way (``tests/planner_goldens.json``): the same programs on
``NOCTUA.with_(trace=True)`` plus two streams long enough for the
fast-forward to jump, recording in addition the emit count of every
trace event kind, every ``PlannerStats`` field and the ordered
``(guard, hop)`` list of the ``abort`` events — what a restructuring of
the planner must not move.

``tests/test_substrate_goldens.py`` re-measures with the working tree
and compares against the committed files. A file is regenerated only
by a PR that changes simulated behaviour on purpose — and then from
the *parent* of the change it is meant to guard, never from the tree
under test. (The per-flit pins were generated at commit 684bfab, the
parent of the PR that replaced the heap-of-tuples calendar; the
default-plane pins at e9b1cbf, the parent of the planner split.)
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import (NOCTUA, SMI_ADD, SMI_FLOAT, SMI_INT, OpDecl, SMIProgram,
                   bus, noctua_bus, noctua_torus, torus2d)
from repro.apps import gesummv, stencil
from repro.simulation.stats import collect_planner_stats
from repro.trace.recorder import EVENT_KINDS, TraceRecorder

TESTS = Path(__file__).resolve().parent.parent / "tests"

#: plane -> (run configuration, pin file, trace event kinds counted).
PLANES = {
    "flit": (NOCTUA.with_(burst_mode=False, trace=True),
             TESTS / "substrate_goldens.json",
             ("dispatch", "park", "wake", "stage", "take", "grant")),
    "default": (NOCTUA.with_(trace=True),
                TESTS / "planner_goldens.json", EVENT_KINDS),
}

MAX_CYCLES = 50_000_000


@contextmanager
def counted_emits():
    """Exact per-kind emit counts and the ``(guard, hop)`` of every
    ``abort`` event in order (the recorder's ring drops old events)."""
    kinds: Counter = Counter()
    aborts: list = []
    original = TraceRecorder.emit

    def emit(recorder, cycle, kind, track, name, dur=0, args=None):
        kinds[kind] += 1
        if kind == "abort":
            aborts.append([args["guard"], args["hop"]])
        return original(recorder, cycle, kind, track, name, dur, args)

    TraceRecorder.emit = emit
    try:
        yield kinds, aborts
    finally:
        TraceRecorder.emit = original


@contextmanager
def captured_run():
    """The apps build and run their program internally: capture the
    ``ProgramResult`` from outside."""
    got: list = []
    original = SMIProgram.run

    def run(self, *args, **kwargs):
        res = original(self, *args, **kwargs)
        got.append(res)
        return res

    SMIProgram.run = run
    try:
        yield got
    finally:
        SMIProgram.run = original


# ----------------------------------------------------------------------
# The pinned programs
# ----------------------------------------------------------------------
def _stream_vec(config, hops, n, width):
    data = np.arange(n, dtype=np.float32)
    prog = SMIProgram(noctua_bus(), config=config)

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, hops, 0)
        yield from ch.push_vec(data, width=width)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        out = yield from ch.pop_vec(n, width=width)
        assert np.array_equal(out, data)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_FLOAT)])
    return prog.run(max_cycles=MAX_CYCLES)


def p2p_vec_1hop(config):
    return _stream_vec(config, 1, 515, 8)


def p2p_vec_4hop(config):
    return _stream_vec(config, 4, 1024, 8)


def stream_jump_1hop(config):
    return _stream_vec(config, 1, 1 << 16, 8)


def stream_jump_4hop(config):
    return _stream_vec(config, 4, 1 << 15, 8)


def p2p_elementwise(config):
    n, hops = 200, 2
    prog = SMIProgram(noctua_bus(), config=config)

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_INT, hops, 0)
        for i in range(n):
            yield from smi.push(ch, i)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_INT, 0, 0)
        for i in range(n):
            assert int((yield from smi.pop(ch))) == i

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_INT)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, SMI_INT)])
    return prog.run(max_cycles=MAX_CYCLES)


def p2p_credited(config):
    n, window, stall = 150, 2, 300
    ops = [OpDecl("send", 0, SMI_INT), OpDecl("recv", 0, SMI_INT)]
    prog = SMIProgram(bus(2), config=config)

    def sender(smi):
        ch = smi.open_credited_send_channel(n, SMI_INT, 1, 0,
                                            window_packets=window)
        for i in range(n):
            yield from smi.push(ch, i)

    def receiver(smi):
        ch = smi.open_credited_recv_channel(n, SMI_INT, 0, 0,
                                            window_packets=window)
        yield smi.wait(stall)
        for i in range(n):
            assert int((yield from smi.pop(ch))) == i

    prog.add_kernel(sender, rank=0, ops=ops)
    prog.add_kernel(receiver, rank=1, ops=ops)
    return prog.run(max_cycles=MAX_CYCLES)


def bcast_torus8(config):
    n = 64
    prog = SMIProgram(noctua_torus(), config=config)

    def kernel(smi):
        chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0)
        for i in range(n):
            v = yield from chan.bcast(float(i) if smi.rank == 0 else None)
            assert float(v) == float(i)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("bcast", 0, SMI_FLOAT)])
    return prog.run(max_cycles=MAX_CYCLES)


def reduce_torus8(config):
    n = 64
    prog = SMIProgram(noctua_torus(), config=config)

    def kernel(smi):
        chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 0, 0)
        for i in range(n):
            v = yield from chan.reduce(float(smi.rank + i))
            if smi.rank == 0:
                assert float(v) == float(sum(r + i for r in range(8)))

    prog.add_kernel(kernel, ranks="all",
                    ops=[OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)])
    return prog.run(max_cycles=MAX_CYCLES)


def gesummv_32(config):
    rng = np.random.default_rng(7)
    n = 32
    A = rng.standard_normal((n, n)).astype(np.float32)
    B = rng.standard_normal((n, n)).astype(np.float32)
    x = rng.standard_normal(n).astype(np.float32)
    with captured_run() as got:
        gesummv.run_distributed_sim(1.5, -0.5, A, B, x, config=config)
    return got[0]


def stencil_2x2(config):
    grid = np.random.default_rng(11).standard_normal((16, 16)) \
        .astype(np.float32)
    with captured_run() as got:
        stencil.run_distributed_sim(grid, 2, (2, 2), topology=torus2d(2, 2),
                                    config=config)
    return got[0]


PROGRAMS = {
    fn.__name__: fn
    for fn in (p2p_vec_1hop, p2p_vec_4hop, p2p_elementwise, p2p_credited,
               bcast_torus8, reduce_torus8, gesummv_32, stencil_2x2)
}

#: Default plane only: streams long enough for the fast-forward to jump.
JUMP_PROGRAMS = {fn.__name__: fn for fn in (stream_jump_1hop,
                                            stream_jump_4hop)}


def programs(plane: str) -> dict:
    """The programs pinned on ``plane``."""
    return PROGRAMS if plane == "flit" else {**PROGRAMS, **JUMP_PROGRAMS}


def measure(name: str, plane: str = "flit") -> dict:
    """Run one pinned program on the importable ``repro`` tree.

    FIFOs that never carried an item are folded into ``idle_fifos`` (a
    count): together with the ``fifos`` map that still pins every FIFO
    of the fabric.
    """
    config, _path, event_kinds = PLANES[plane]
    with counted_emits() as (kinds, aborts):
        res = programs(plane)[name](config)
    assert res.completed, res.reason
    fifos = {}
    idle = 0
    for fname, st in res.engine.fifo_stats().items():
        row = [st["pushes"], st["pops"], st["max_occupancy"]]
        if any(row):
            fifos[fname] = row
        else:
            idle += 1
    pins = {
        "cycles": res.cycles,
        "events": {kind: kinds[kind] for kind in event_kinds},
        "idle_fifos": idle,
        "fifos": fifos,
    }
    if plane == "default":
        pins["planner"] = vars(collect_planner_stats(res.transport))
        pins["aborts"] = aborts
    return pins


def main(argv: list[str]) -> int:
    plane = argv[argv.index("--plane") + 1] if "--plane" in argv else "flit"
    pins = {name: measure(name, plane) for name in programs(plane)}
    text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        PLANES[plane][1].write_text(text)
        print(f"wrote {PLANES[plane][1]}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
