"""Unit tests for the R-burst polling arbiter (§4.3, Table 4 mechanism)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.simulation import TICK, Engine, WaitCycles
from repro.transport.arbiter import PollingArbiter


class _Sink:
    """An always-writable output recording ``(cycle, packet)``."""

    writable = True

    def __init__(self, eng, out):
        self.eng = eng
        self.out = out

    def stage(self, pkt):
        self.out.append((self.eng.cycle, pkt))


def _run_arbiter(eng, inputs, read_burst, out, stop_after):
    """Spawn an arbiter that routes every packet into ``out`` list."""
    arb = PollingArbiter(inputs, read_burst)
    sink = _Sink(eng, out)
    eng.spawn(arb.run(lambda _pkt: sink, eng), "arb", daemon=True)
    return arb


def _spawn_drain_waiter(eng, out, n):
    """Keep the simulation alive until ``n`` packets were accepted."""

    def waiter():
        while len(out) < n:
            yield WaitCycles(8)

    eng.spawn(waiter, "drain-waiter")


def test_requires_inputs_and_positive_burst():
    eng = Engine()
    f = eng.fifo("f", capacity=2)
    with pytest.raises(SimulationError):
        PollingArbiter([], 1)
    with pytest.raises(SimulationError):
        PollingArbiter([f], 0)


def test_single_input_sustains_one_per_cycle():
    eng = Engine()
    f = eng.fifo("f", capacity=16)
    out = []
    _run_arbiter(eng, [f], read_burst=8, out=out, stop_after=None)

    def producer():
        for i in range(20):
            yield from f.push(i)

    eng.spawn(producer, "p")
    _spawn_drain_waiter(eng, out, 20)
    eng.run()
    assert len(out) == 20
    gaps = [b[0] - a[0] for a, b in zip(out, out[1:])]
    # With one input there is nothing else to poll: back-to-back accepts.
    assert all(g == 1 for g in gaps[2:])


@pytest.mark.parametrize("R,expected_gap", [(1, 5.0), (4, 2.0), (8, 1.5), (16, 1.25)])
def test_injection_gap_formula_five_inputs(R, expected_gap):
    """One active input among five: average accept gap = (R + 4) / R.

    This is the polling arithmetic underlying Table 4 (5 inputs at a CKS
    with 4 QSFPs: the application, the paired CKR, and 3 other CKS).
    """
    eng = Engine()
    active = eng.fifo("active", capacity=64)
    idles = [eng.fifo(f"idle{i}", capacity=4) for i in range(4)]
    out = []
    _run_arbiter(eng, [active] + idles, read_burst=R, out=out, stop_after=None)

    n = 200

    def producer():
        for i in range(n):
            yield from active.push(i)

    eng.spawn(producer, "p")
    _spawn_drain_waiter(eng, out, n)
    eng.run()
    assert len(out) == n
    # Steady-state average gap (skip warmup).
    cycles = [c for c, _ in out]
    steady = cycles[20:]
    avg = (steady[-1] - steady[0]) / (len(steady) - 1)
    assert avg == pytest.approx(expected_gap, rel=0.1)


def test_round_robin_fairness_two_active():
    eng = Engine()
    a = eng.fifo("a", capacity=64)
    b = eng.fifo("b", capacity=64)
    out = []
    _run_arbiter(eng, [a, b], read_burst=2, out=out, stop_after=None)

    def producer(f, tag, n):
        def proc():
            for i in range(n):
                yield from f.push((tag, i))

        return proc

    eng.spawn(producer(a, "a", 40), "pa")
    eng.spawn(producer(b, "b", 40), "pb")
    _spawn_drain_waiter(eng, out, 80)
    eng.run()
    tags = [pkt[0] for _, pkt in out]
    assert tags.count("a") == 40 and tags.count("b") == 40
    # With burst 2, the arbiter alternates in blocks of at most 2.
    max_run = 1
    run = 1
    for x, y in zip(tags, tags[1:]):
        run = run + 1 if x == y else 1
        max_run = max(max_run, run)
    assert max_run <= 3  # 2 from burst, +1 slack for refill timing


def test_parks_when_all_inputs_idle():
    # The arbiter must not keep the engine busy when nothing is flowing:
    # a worker sleeping 10k cycles should end the run at exactly 10k.
    eng = Engine()
    f1 = eng.fifo("f1", capacity=4)
    f2 = eng.fifo("f2", capacity=4)
    out = []
    _run_arbiter(eng, [f1, f2], read_burst=1, out=out, stop_after=None)

    def worker():
        yield WaitCycles(10_000)

    eng.spawn(worker, "w")
    result = eng.run()
    assert result.cycles == 10_000
    assert out == []


def test_wakeup_charges_scan_distance():
    # After idling, a packet arriving on input k is accepted only after the
    # pointer scans to it — timing matches literal polling hardware.
    eng = Engine()
    inputs = [eng.fifo(f"f{i}", capacity=4) for i in range(5)]
    out = []
    _run_arbiter(eng, inputs, read_burst=1, out=out, stop_after=None)

    def producer():
        yield WaitCycles(100)
        inputs[3].stage("x")
        yield None

    eng.spawn(producer, "p")
    _spawn_drain_waiter(eng, out, 1)
    eng.run()
    assert len(out) == 1
    accept_cycle = out[0][0]
    # Staged at 100, visible at 101; pointer position after the initial
    # scan is deterministic; acceptance happens within a poll round.
    assert 101 <= accept_cycle <= 101 + len(inputs)


def test_accept_counter():
    eng = Engine()
    f = eng.fifo("f", capacity=8)
    out = []
    arb = _run_arbiter(eng, [f], read_burst=4, out=out, stop_after=None)

    def producer():
        for i in range(9):
            yield from f.push(i)

    eng.spawn(producer, "p")
    _spawn_drain_waiter(eng, out, 9)
    eng.run()
    assert arb.packets_accepted == 9


# ----------------------------------------------------------------------
# Position preservation: the continuation-driven loop against a literal
# transcript of the generator-only loop it replaced
# ----------------------------------------------------------------------
class _TranscriptArbiter(PollingArbiter):
    """The specification loop as it stood before engine-side
    continuations (the parent commit's ``PollingArbiter.run`` with
    ``ck=None``, and ``ck._forward`` / ``_stage_with_backpressure`` as
    they were): every step resumes the generator. Test-only."""

    def run(self, route, engine, ck=None):
        def forward(pkt):
            out = route(pkt)
            while not out.writable:
                yield out.wait_writable()
            out.stage(pkt)
            yield TICK

        inputs = self.inputs
        n = len(inputs)
        burst = self.read_burst
        while True:
            resume_reads = self._resume_reads
            fifo = inputs[self._idx]
            if resume_reads >= 0 or fifo.readable:
                reads = max(resume_reads, 0)
                self._resume_reads = -1
                if reads < burst and fifo.readable:
                    pkt = fifo.take()
                    if engine.trace is not None:
                        engine.trace.emit(engine.cycle, "grant", fifo.name,
                                          "grant", args={"input": self._idx})
                    yield from forward(pkt)
                    reads += 1
                    if reads < burst:
                        self._resume_reads = reads
                        continue
                self._idx = (self._idx + 1) % n
            else:
                self._idx = (self._idx + 1) % n
                if self._wait_any.holds(engine.cycle):
                    yield TICK
                else:
                    self._resume_state = "parked"
                    yield self._wait_any
                    self._resume_state = "run"
                    scan = 0
                    while scan < n and not inputs[self._idx].readable:
                        self._idx = (self._idx + 1) % n
                        scan += 1
                    if scan:
                        yield WaitCycles(scan)


class _Tape:
    """Stands in for the flight recorder: every event's ``(cycle, kind,
    track)`` in emission order, grants with their input, and the
    arbiter's pointer and round state at each of its parks."""

    def __init__(self):
        self.events = []
        self.parks = []
        self.arbiter = None

    def emit(self, cycle, kind, track, _name, dur=0, args=None):
        self.events.append((cycle, kind, track))
        if kind == "grant":
            self.events.append(("input", args["input"]))
        elif kind == "park" and track == "arb":
            arb = self.arbiter
            self.parks.append((cycle, arb._idx, arb._resume_reads,
                               arb._resume_state))

    def sample(self, *_args):
        pass


#: (R, input depth, output depth, outputs, the arbiter's spawn position,
#:  per-input gaps before each push, the consumer's stall before each pop)
_schedules = st.tuples(
    st.sampled_from([1, 2, 8]), st.sampled_from([1, 2, 8]),
    st.sampled_from([1, 2, 8]), st.integers(1, 2), st.integers(0, 6),
    st.lists(st.lists(st.integers(0, 9), max_size=10),
             min_size=1, max_size=5),
    st.lists(st.integers(0, 12), min_size=1, max_size=6))


def _play_schedule(arbiter_cls, schedule):
    read_burst, in_depth, out_depth, n_out, arb_pos, arrivals, stalls = \
        schedule
    eng = Engine()
    eng.trace = tape = _Tape()
    inputs = [eng.fifo(f"in{i}", capacity=in_depth)
              for i in range(len(arrivals))]
    outs = [eng.fifo(f"out{i}", capacity=out_depth) for i in range(n_out)]
    tape.arbiter = arb = arbiter_cls(inputs, read_burst)

    def producer(i, fifo, gaps):
        for k, gap in enumerate(gaps):
            if gap:
                yield WaitCycles(gap)
            yield from fifo.push(10 * k + i)

    def consumer(out, count, offset):
        for k in range(count):
            stall = stalls[(k + offset) % len(stalls)]
            if stall:
                yield WaitCycles(stall)     # the output fills meanwhile
            yield from out.pop()

    spawns = [(f"p{i}", producer(i, f, gaps), False)
              for i, (f, gaps) in enumerate(zip(inputs, arrivals))]
    for o, out in enumerate(outs):
        count = sum(1 for i, gaps in enumerate(arrivals)
                    for k in range(len(gaps)) if (10 * k + i) % n_out == o)
        spawns.append((f"c{o}", consumer(out, count, o), False))
    spawns.insert(min(arb_pos, len(spawns)), (
        "arb", arb.run(lambda pkt: outs[pkt % n_out], eng), True))
    for name, gen, daemon in spawns:
        eng.spawn(gen, name, daemon=daemon)
    end = eng.run().cycles
    counts = {f.name: (f.pushes, f.pops, f.max_occupancy)
              for f in inputs + outs}
    return {"end": end, "events": tape.events, "parks": tape.parks,
            "fifos": counts, "accepted": arb.packets_accepted,
            "state": (arb._idx, arb._resume_reads, arb._resume_state),
            "steps": eng.steps}, eng.elided_steps


@settings(max_examples=300, deadline=None)
@given(schedule=_schedules)
# An arrival landing exactly one cycle after a grant (the settle step
# must see it), one landing while the wake-up scan is being charged, a
# 1-deep output that a stalling consumer keeps full, and an R-round
# that runs dry and is closed by the settle step.
@example(schedule=(1, 2, 2, 1, 0, [[0], [], [2]], [0]))
@example(schedule=(1, 8, 8, 1, 2, [[], [], [], [5, 0], [6]], [0]))
@example(schedule=(2, 1, 1, 1, 3, [[0, 0, 0, 0], [1, 0, 0]], [7, 0, 3]))
@example(schedule=(8, 8, 2, 2, 1, [[0, 0, 0, 4, 0], [3], [9, 0]], [2]))
def test_continuations_keep_every_calendar_position(schedule):
    """One generator resume per granted packet, and nothing else moves:
    the same ``(cycle, kind, track)`` trace — every dispatch, park, wake,
    stage, take and grant, in order — the same pointer and round state
    at every park, the same per-FIFO pushes / pops / occupancy peaks and
    the same end cycle as the loop that resumed its generator for every
    step."""
    want, elided = _play_schedule(_TranscriptArbiter, schedule)
    assert elided == 0
    got, elided = _play_schedule(PollingArbiter, schedule)
    assert got == want
    grants = got["accepted"]
    if grants:
        assert elided > 0


def test_sparse_arbiter_resumes_its_generator_once_per_packet():
    """Wake-up scan, grant, settle-and-park: three dispatches per packet
    of a sparse input set, one of them a generator resume."""
    import sys

    eng = Engine()
    inputs = [eng.fifo(f"in{i}", capacity=4) for i in range(5)]
    out = []
    arb = _run_arbiter(eng, inputs, read_burst=1, out=out, stop_after=None)
    resumes = [0]
    code = PollingArbiter.run.__code__

    def count(frame, event, _arg):
        # (This arbiter's only: a collected generator of an earlier test
        # is entered once more, to be closed.)
        if event == "call" and frame.f_code is code \
                and frame.f_locals["self"] is arb:
            resumes[0] += 1

    def producer():
        for i in range(50):
            inputs[(3 * i) % 5].stage(i)
            yield WaitCycles(9)

    eng.spawn(producer, "p")
    sys.setprofile(count)
    try:
        eng.run()
    finally:
        sys.setprofile(None)
    assert arb.packets_accepted == 50
    assert resumes[0] == 50 + 1          # + the first run, which parks
    assert eng.elided_steps == 2 * 50    # the scan's sleep, the settle
