"""Waiter storage is bounded by the processes parked right now.

A park used to append a ``(process, token)`` tuple to every condition it
waited on and a wake cleared only the list it came through, so a CK
polling n inputs left n - 1 dead entries behind on every park: 51 980
entries against 67 live ones after one 4-hop per-flit stream, 121 348
against 304 after an 8-rank bcast — and every later ``stage()`` on such
a FIFO scheduled a commit event whose only work was walking the garbage.
These tests pin the replacement's invariants: a registration exists
exactly while its process is parked on that condition, and a stage on a
FIFO nobody is parked on schedules nothing.
"""

import numpy as np
import pytest

from repro import (NOCTUA, SMI_FLOAT, OpDecl, SMIProgram, noctua_bus,
                   noctua_torus)
from repro.simulation import AnyReadable, Engine, WaitCycles
from repro.transport.arbiter import PollingArbiter

FLIT = NOCTUA.with_(burst_mode=False)


def _stream_4hop():
    n = 4096
    data = np.arange(n, dtype=np.float32)
    prog = SMIProgram(noctua_bus(), config=FLIT)

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, 4, 0)
        yield from ch.push_vec(data, width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        yield from ch.pop_vec(n, width=8)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT)])
    prog.add_kernel(rcv, rank=4, ops=[OpDecl("recv", 0, SMI_FLOAT)])
    return prog


def _bcast_8rank():
    n = 96
    prog = SMIProgram(noctua_torus(), config=FLIT)

    def kernel(smi):
        chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0)
        for i in range(n):
            yield from chan.bcast(float(i) if smi.rank == 0 else None)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("bcast", 0, SMI_FLOAT)])
    return prog


def _waited_conditions(proc):
    waiting = proc._waiting_on
    if waiting is None:
        return ()
    if type(waiting) is AnyReadable:
        return waiting.conds
    return waiting if type(waiting) in (tuple, list) else (waiting,)


def check_registrations(engine):
    """Every registration belongs to a process parked on that very
    condition; returns ``(registrations, bound)`` where the bound is
    live parked processes x their input counts."""
    conds = [c for f in engine.fifos for c in (f.can_pop, f.can_push)]
    conds += [p.done for p in engine.processes]
    registrations = 0
    for cond in conds:
        for proc in cond.waiters:
            assert not proc.finished
            assert any(c is cond for c in _waited_conditions(proc)), \
                f"{proc.name} is registered on {cond!r} but waits on " \
                f"{proc._waiting_on!r}"
            registrations += 1
    watchers = {id(f.can_pop.watch): f.can_pop.watch for f in engine.fifos}
    for watch in watchers.values():
        if watch.proc is not None:
            assert watch.proc._waiting_on is watch
            registrations += len(watch.fifos)
    bound = sum(len(_waited_conditions(p)) for p in engine.processes
                if not p.finished)
    return registrations, bound


@pytest.mark.parametrize("build", [_stream_4hop, _bcast_8rank])
def test_registrations_are_bounded_by_live_parks(build):
    res = build().run(max_cycles=200)
    engine = res.engine
    peak = 0
    checkpoints = 0
    while not res.completed:
        registrations, bound = check_registrations(engine)
        assert registrations <= bound
        peak = max(peak, registrations)
        checkpoints += 1
        res = engine.run(max_cycles=engine.cycle + 97)
    assert checkpoints > 5
    registrations, bound = check_registrations(engine)
    assert registrations <= bound
    # The kernels are done; what is left are the forever-serving daemons
    # (CKs, support kernels), each parked once on its own inputs.
    parked = [p for p in engine.processes if p._waiting_on is not None]
    assert registrations == bound
    assert 0 < len(parked) <= len(engine.processes)
    assert max(peak, registrations) <= 5 * len(engine.processes)


def _count_commits(engine):
    armed = []
    original = engine._schedule_commit

    def schedule_commit(cycle, fifo):
        armed.append((cycle, fifo.name))
        return original(cycle, fifo)

    engine._schedule_commit = schedule_commit
    return armed


def test_stage_with_nobody_parked_schedules_no_commit():
    eng = Engine()
    a = eng.fifo("a", capacity=4)
    b = eng.fifo("b", capacity=4)
    armed = _count_commits(eng)
    got = []

    def consumer():
        yield (a.can_pop, b.can_pop)         # parks on both
        got.append((a.take(), eng.cycle))
        yield WaitCycles(20)                 # busy, not parked
        got.append((b.take(), eng.cycle))

    def producer():
        yield WaitCycles(3)
        a.stage("x")                         # wakes the consumer at 4
        yield WaitCycles(7)
        assert not b.can_pop.waiters         # withdrawn by the wake via a
        b.stage("y")                         # nobody parked on b

    eng.spawn(consumer, "consumer")
    eng.spawn(producer, "producer")
    eng.run()
    assert got == [("x", 4), ("y", 24)]
    assert armed == [(4, "a")]


class _Drop:
    """An always-writable output that discards what is staged."""

    writable = True

    def stage(self, pkt):
        pass


_DROP = _Drop()


def test_stage_into_an_unparked_arbiter_input_schedules_no_commit():
    eng = Engine()
    fifos = [eng.fifo(f"in{i}", capacity=4) for i in range(3)]
    arbiter = PollingArbiter(fifos, read_burst=1)
    armed = _count_commits(eng)
    accepted = []

    class SlowOutput:
        """An output whose first slot frees at cycle 14."""

        @property
        def writable(self):
            return eng.cycle >= 14

        def wait_writable(self):             # a long stall: not parked
            return WaitCycles(14 - eng.cycle)

        def stage(self, pkt):
            accepted.append((pkt, eng.cycle))

    out = SlowOutput()

    def producer():
        yield WaitCycles(3)
        fifos[0].stage("p")                  # the arbiter is parked: armed
        yield WaitCycles(3)
        assert fifos[1].can_pop.watch.proc is None
        fifos[1].stage("q")                  # mid-stall: nothing to wake
        fifos[2].stage("r")
        yield WaitCycles(60)                 # let the daemon drain them

    eng.spawn(arbiter.run(lambda _pkt: out, eng), "arbiter", daemon=True)
    eng.spawn(producer, "producer")
    eng.run()
    assert accepted == [("p", 14), ("q", 15), ("r", 16)]
    assert armed == [(4, "in0")]


def test_a_park_on_an_input_set_allocates_nothing():
    """10 000 parks on an arbiter's input set leave O(1) live blocks
    allocated from ``engine.py`` / ``conditions.py`` behind — no
    ``(process, token)`` tuple, no condition list per park."""
    import tracemalloc

    eng = Engine()
    fifos = [eng.fifo(f"in{i}", capacity=4) for i in range(5)]
    arbiter = PollingArbiter(fifos, read_burst=1)
    parks = 10_000

    def producer():
        for i in range(parks):
            fifos[i % 5].stage(i)
            yield WaitCycles(8)

    eng.spawn(arbiter.run(lambda _pkt: _DROP, eng), "arbiter", daemon=True)
    eng.spawn(producer, "producer")
    eng.run(max_cycles=200)                  # warm up: lists at capacity
    substrate = [tracemalloc.Filter(True, "*/simulation/engine.py"),
                 tracemalloc.Filter(True, "*/simulation/conditions.py")]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(substrate)
        eng.run()
        for f in fifos:
            # The occupancy logs keep the clock's int objects (made in
            # engine.py) until they fold; that is statistics, not parks.
            f._occ_fold()
        after = tracemalloc.take_snapshot().filter_traces(substrate)
    finally:
        tracemalloc.stop()
    assert arbiter.packets_accepted == parks
    live = sum(stat.count_diff for stat in
               after.compare_to(before, "filename") if stat.count_diff > 0)
    assert live <= 64, f"{live} blocks still allocated after {parks} parks"
    registrations, bound = check_registrations(eng)
    assert registrations == bound == 5
