"""Unit tests for registered FIFO semantics (the hardware handoff model)."""

import copy
import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NOCTUA_DEEP, SMI_FLOAT, SMIProgram, noctua_bus
from repro.codegen.metadata import OpDecl
from repro.core.errors import SimulationError
from repro.simulation import TICK, Engine, WaitCycles
from repro.simulation import fifo as fifo_mod
from repro.simulation.stats import collect_planner_stats


def test_item_visible_one_cycle_after_stage():
    eng = Engine()
    f = eng.fifo("f", capacity=4)
    observations = []

    def producer():
        f.stage("a")  # staged at cycle 0
        yield TICK

    def observer():
        observations.append((eng.cycle, f.readable))  # cycle 0: not yet
        yield TICK
        observations.append((eng.cycle, f.readable))  # cycle 1: visible
        yield TICK

    eng.spawn(producer, "p")
    eng.spawn(observer, "o")
    eng.run()
    assert observations == [(0, False), (1, True)]


def test_latency_parameter_delays_visibility():
    eng = Engine()
    f = eng.fifo("link", capacity=16, latency=10)
    arrival = []

    def producer():
        f.stage("pkt")
        yield TICK

    def consumer():
        item = yield from f.pop()
        arrival.append((eng.cycle, item))

    eng.spawn(producer, "p")
    eng.spawn(consumer, "c")
    eng.run()
    # Staged at cycle 0, visible at 10, pop consumes a cycle -> done at 11.
    assert arrival == [(11, "pkt")]


def test_throughput_one_item_per_cycle():
    # A FIFO with sufficient capacity sustains 1 item/cycle.
    eng = Engine()
    f = eng.fifo("f", capacity=8)
    n = 100
    done = {}

    def producer():
        for i in range(n):
            yield from f.push(i)
        done["push_end"] = eng.cycle

    def consumer():
        for _ in range(n):
            yield from f.pop()
        done["pop_end"] = eng.cycle

    eng.spawn(producer, "p")
    eng.spawn(consumer, "c")
    eng.run()
    # Producer: one push per cycle -> finishes at cycle n.
    assert done["push_end"] == n
    # Consumer trails by the 1-cycle handoff.
    assert done["pop_end"] <= n + 2


def test_backpressure_blocks_producer():
    eng = Engine()
    f = eng.fifo("tiny", capacity=2)
    push_times = []

    def producer():
        for i in range(6):
            while not f.writable:
                yield f.can_push
            f.stage(i)
            push_times.append(eng.cycle)
            yield TICK

    def slow_consumer():
        for _ in range(6):
            yield WaitCycles(10)
            while not f.readable:
                yield f.can_pop
            f.take()

    eng.spawn(producer, "p")
    eng.spawn(slow_consumer, "c")
    eng.run()
    # First two pushes are back-to-back; the rest are paced by the consumer.
    assert push_times[0] == 0 and push_times[1] == 1
    gaps = [b - a for a, b in zip(push_times[2:], push_times[3:])]
    assert all(g >= 9 for g in gaps)


def test_capacity_counts_staged_items():
    eng = Engine()
    f = eng.fifo("f", capacity=2)

    def proc():
        assert f.writable
        f.stage(1)
        assert f.writable  # 1 staged, 1 free
        f.stage(2)
        assert not f.writable  # full: 2 staged
        yield TICK

    eng.spawn(proc, "p")
    eng.run()


def test_stage_while_full_raises():
    eng = Engine()
    f = eng.fifo("f", capacity=1)

    def proc():
        f.stage(1)
        with pytest.raises(SimulationError, match="while full"):
            f.stage(2)
        yield TICK

    eng.spawn(proc, "p")
    eng.run()


def test_take_while_empty_raises():
    eng = Engine()
    f = eng.fifo("f", capacity=1)

    def proc():
        with pytest.raises(SimulationError, match="while empty"):
            f.take()
        yield TICK

    eng.spawn(proc, "p")
    eng.run()


def test_invalid_construction():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.fifo("bad", capacity=0)
    with pytest.raises(SimulationError):
        eng.fifo("bad", capacity=1, latency=0)


def test_drain_returns_everything_in_order():
    eng = Engine()
    f = eng.fifo("f", capacity=8)

    def proc():
        for i in range(3):
            f.stage(i)
        yield TICK
        yield TICK
        f.stage(99)  # still staged when we drain
        yield TICK

    eng.spawn(proc, "p")
    eng.run()
    assert f.drain() == [0, 1, 2, 99]
    assert not f.readable


@settings(deadline=None, max_examples=30)
@given(
    items=st.lists(st.integers(), min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=8),
    latency=st.integers(min_value=1, max_value=12),
    consumer_stall=st.integers(min_value=0, max_value=3),
)
def test_fifo_preserves_order_and_loses_nothing(items, capacity, latency, consumer_stall):
    """Property: any FIFO delivers exactly the pushed sequence, in order,
    for every combination of capacity, latency and consumer pacing."""
    eng = Engine()
    f = eng.fifo("f", capacity=capacity, latency=latency)
    received = []

    def producer():
        for item in items:
            yield from f.push(item)

    def consumer():
        for _ in range(len(items)):
            if consumer_stall:
                yield WaitCycles(consumer_stall)
            item = yield from f.pop()
            received.append(item)

    eng.spawn(producer, "p")
    eng.spawn(consumer, "c")
    eng.run()
    assert received == items
    assert f.pushes == len(items)
    assert f.pops == len(items)
    assert f.max_occupancy <= capacity


# ----------------------------------------------------------------------
# Columnar staged store: one packet = one row in the lock-step
# ``_staged`` / ``_ready`` columns, never one container object.
# ----------------------------------------------------------------------
class _GcPasses:
    """Count collector passes (and sample a probe at each) via
    ``gc.callbacks`` — counts, not timings, so the tests are exact."""

    def __init__(self, probe=None):
        self.passes = 0
        self.peak = 0
        self._probe = probe

    def _callback(self, phase, _info):
        if phase == "start":
            self.passes += 1
            if self._probe is not None:
                self.peak = max(self.peak, self._probe())

    def __enter__(self):
        gc.collect()
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


def test_bulk_stage_and_take_allocate_no_per_item_container():
    n = 65536
    latency, lag = 3, 100
    # GC-tracked payloads, like packets: a per-item ``(ready, item)`` row
    # object would stay tracked for as long as it is staged.
    items = [[i] for i in range(n)]
    takes = [i + latency + lag for i in range(n)]

    eng = Engine()
    bulk = eng.fifo("bulk", capacity=n, latency=latency)
    with _GcPasses() as collector:
        before = len(gc.get_objects())
        bulk.stage_burst(items, range(n))
        growth = len(gc.get_objects()) - before
        # Two bulk takes: the first leaves a tail behind (both columns
        # drop the same prefix), the second empties the store.
        cut = 40000
        assert bulk.take_burst(takes[:cut]) is None
        assert len(bulk._staged) == len(bulk._ready) == n - cut
        assert next(bulk.iter_present()) == (items[cut], cut + latency)
        assert bulk.take_burst(takes[cut:]) is None
    assert growth < 64, f"staging {n} items tracked {growth} new objects"
    # A row object per item would be ~n / 700 generation-0 passes.
    assert collector.passes <= 2
    assert len(bulk._staged) == len(bulk._ready) == 0
    eng.cycle = takes[-1]

    ref_eng = Engine()
    ref = ref_eng.fifo("ref", capacity=n, latency=latency)
    for cyc in range(takes[-1] + 1):
        ref_eng.cycle = cyc
        if cyc < n:
            ref.stage(items[cyc])
        if cyc >= latency + lag:
            assert ref.take() is items[cyc - latency - lag]

    def summary(f):
        return f.pushes, f.pops, f.max_occupancy, f.present_count

    # End-of-cycle occupancy: the stage and take of one cycle net out.
    assert summary(bulk) == summary(ref) == (n, n, latency + lag, 0)


def test_macro_stream_holds_no_per_packet_tuples():
    """The recv-lane half of the storage rule: a fast-forwarded deep
    stream keeps its ledgers columnar, so live tuples stay bounded by
    the FIFO depth instead of growing with the message."""
    n = 1 << 17
    data = np.arange(n, dtype=np.float32) % 1024
    config = NOCTUA_DEEP.with_(macro_cruise=True)
    prog = SMIProgram(noctua_bus(), config=config)

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, 1, 0)
        yield from ch.push_vec(data, width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        out = yield from ch.pop_vec(n, width=8)
        smi.store("ok", bool(np.array_equal(out, data)))

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT, peer=1)])
    prog.add_kernel(rcv, rank=1, ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])

    def live_tuples():
        return sum(1 for o in gc.get_objects() if type(o) is tuple)

    # Any pile-up of tracked tuples forces a generation-0 pass within 700
    # allocations of its peak, so sampling at each pass cannot miss it.
    with _GcPasses(live_tuples) as collector:
        base = live_tuples()
        res = prog.run(max_cycles=200_000_000)
    assert res.completed and res.store(1, "ok")
    assert collect_planner_stats(res.transport).ff_jumps >= 1
    # n / 7 = 18 725 packets crossed the stream (75 013 live tuples with
    # one row object per packet); what remains is pattern bookkeeping.
    depth = config.endpoint_fifo_depth
    assert collector.peak - base < 64 * depth


class _ModelFifo:
    """Reference model of the staged store: a plain list of
    ``(ready, item)`` rows plus the reserved release cycles."""

    def __init__(self, latency):
        self.latency = latency
        self.rows = []
        self.reserved = []
        self.last_stage = self.last_take = 0

    def free(self, capacity, now):
        self.reserved = [c for c in self.reserved if c >= now]
        return capacity - len(self.rows) - len(self.reserved)

    def stage(self, items, cycles):
        self.rows += [(c + self.latency, x) for x, c in zip(items, cycles)]
        self.last_stage = cycles[-1]

    def take(self, cycles, now):
        taken = [x for _r, x in self.rows[:len(cycles)]]
        del self.rows[:len(cycles)]
        self.reserved += [c for c in cycles if c >= now]
        self.last_take = cycles[-1]
        return taken

    def present(self, now, limit=None):
        return [(x, max(r, now)) for r, x in self.rows[:limit]]


def _agree(f, model, now):
    """Every read-side view of the FIFO against the model's rows."""
    assert len(f._staged) == len(f._ready)  # the lock-step invariant
    rows = model.rows
    # Every row keeps its ready cycle until it is taken.
    assert list(f._ready) == [r for r, _x in rows]
    assert f._next_commit_cycle() == (rows[0][0] if rows else None)
    assert f.present_count == len(rows)
    assert f.readable == bool(rows and rows[0][0] <= now)
    assert f.earliest_readable() == (
        max(rows[0][0], now) if rows else now + f.latency)
    assert list(f.iter_present()) == model.present(now)
    n_vis = sum(1 for r, _x in rows if r <= now)
    for limit in {0, 1, n_vis - 1, n_vis, n_vis + 1, len(rows),
                  len(rows) + 1}:
        if limit < 0:
            continue
        items, ready = f.present_schedule(now, limit)
        assert len(items) == len(ready)
        assert list(zip(items, ready)) == model.present(now, limit or None)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_columnar_store_matches_row_model(data):
    capacity = data.draw(st.sampled_from([2, 5, 16, 6000]), label="capacity")
    latency = data.draw(st.integers(1, 9), label="latency")
    eng = Engine()
    f = eng.fifo("f", capacity=capacity, latency=latency)
    model = _ModelFifo(latency)
    serial = iter(range(10 ** 9))
    gaps = st.integers(0, 3)
    # Mostly short runs, sometimes one of thousands of items.
    run_len = st.one_of(st.integers(1, 6), st.sampled_from([2049, 2500]))

    def paced(k, start, floors=None):
        """``k`` non-decreasing cycles from ``start``; ``floors[i]``
        lower-bounds cycle ``i`` (an item's visibility)."""
        out, c = [], start
        for i in range(k):
            c += data.draw(gaps)
            if floors is not None:
                c = max(c, floors[i])
            out.append(c)
        return out

    def take_cycles(k, start):
        return paced(k, start, [r for r, _x in model.rows[:k]])

    if capacity > 2048:
        # Prefill so that long takes can leave a tail behind.
        model.stage(list(range(-3000, 0)), list(range(3000)))
        f.stage_burst(list(range(-3000, 0)), range(3000))
        eng.cycle = 3000 + latency
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        now = eng.cycle
        free = model.free(capacity, now)
        op = data.draw(st.sampled_from(
            ["advance", "stage", "stage_burst", "take", "take_burst",
             "inject", "promote"]), label="op")
        if op == "advance":
            eng.cycle += data.draw(st.integers(1, 12))
        elif op == "promote":
            assert len(f) == sum(1 for r, _x in model.rows if r <= now)
        elif op == "stage":
            if free > 0 and now >= model.last_stage:
                assert f.writable
                item = next(serial)
                f.stage(item)
                model.stage([item], [now])
            elif free <= 0:
                assert not f.writable
        elif op == "stage_burst":
            k = min(data.draw(run_len), free)
            if k > 0:
                items = [next(serial) for _ in range(k)]
                cycles = paced(k, max(now, model.last_stage))
                f.stage_burst(items, cycles)
                model.stage(items, cycles)
        elif op == "take":
            if model.rows and model.rows[0][0] <= now \
                    and now >= model.last_take:
                assert [f.take()] == model.take([now], now)
                model.reserved.pop()  # a per-flit take frees at once
        elif op == "take_burst":
            k = min(data.draw(run_len), len(model.rows))
            if k:
                cycles = take_cycles(k, max(now, model.last_take))
                # A burst returns nothing: the caller holds the items
                # from the snapshot it planned against.
                held, _ready = f.present_schedule(now, k)
                assert f.take_burst(cycles) is None
                assert list(held) == model.take(cycles, now)
        elif op == "inject":
            k = data.draw(st.integers(1, 6))
            tail = model.rows[-1][0] if model.rows else 0
            visible = paced(k, max(now + 1, tail,
                                   model.last_stage + latency))
            items = [next(serial) for _ in range(k)]
            f.inject_staged(items, visible)
            model.stage(items, [v - latency for v in visible])
        _agree(f, model, eng.cycle)
    assert f.pushes - f.pops == len(model.rows)
    assert f.drain() == [x for _r, x in model.rows]
    assert f.pops == f.pushes  # drain logs what it removes as takes
    assert len(f._staged) == len(f._ready) == f.present_count == 0


# ----------------------------------------------------------------------
# Time shift: a proven periodic span lands as arithmetic, not as items
# ----------------------------------------------------------------------
def _fifo_state(f):
    """Every data field of a FIFO, containers copied."""
    return {name: copy.deepcopy(getattr(f, name)) for name in (
        "_staged", "_ready", "_reserved", "_reserved_paired",
        "pushes", "pops", "_occ_stages", "_occ_takes", "_occ_base",
        "_occ_peak", "_occ_folded_stages", "_occ_folded_takes",
        "_occ_folded_through", "_occ_span")}


@st.composite
def _steady_lattices(draw):
    """A FIFO in a periodic steady state: ``ppp`` items per ``period``
    cycles staged at sorted offsets, each taken a per-slot lag after it
    turns visible; producer and consumer frontiers at a random phase."""
    latency = draw(st.integers(1, 12))
    ppp = draw(st.integers(1, 6))
    period = draw(st.integers(ppp, 40))
    stage_off = sorted(draw(st.lists(st.integers(0, period - 1),
                                     min_size=ppp, max_size=ppp)))
    base_lag = draw(st.integers(0, 2 * period))
    lag = [base_lag + draw(st.integers(0, 3)) for _ in range(ppp)]
    R = draw(st.integers(2, 500))
    periods = (latency + max(lag)) // period + 4
    total = (periods + R) * ppp
    stages = [(i // ppp) * period + stage_off[i % ppp] for i in range(total)]
    takes, prev = [], 0
    for i, s in enumerate(stages):
        prev = max(prev, s + latency + lag[i % ppp])
        takes.append(prev)
    n_prefix = periods * ppp
    f_p = periods * period            # the next stage lands at or past it
    # The consumer frontier: past one period of takes, never past the
    # take of the first item not staged yet.
    f_c = draw(st.integers(takes[0] + 2 * period, takes[n_prefix]))
    n_taken = sum(1 for t in takes[:n_prefix] if t < f_c)
    return dict(latency=latency, ppp=ppp, period=period, R=R,
                stages=stages, takes=takes, n_prefix=n_prefix,
                n_taken=n_taken, floor=min(f_p, f_c),
                spare=draw(st.integers(0, 5)),
                paired=draw(st.integers(0, 1 << 30)))


@settings(deadline=None, max_examples=150)
@given(lat=_steady_lattices(), data=st.data())
def test_time_shift_matches_the_materialised_lattices(lat, data):
    """Prefix + shift against a twin that lands every item of the span
    through ``stage_burst`` / ``take_burst``: at the shifted frontiers
    the two agree on everything a process or a statistic can read."""
    ppp, period, R = lat["ppp"], lat["period"], lat["R"]
    stages, takes = lat["stages"], lat["takes"]
    n_prefix, n_taken, floor = lat["n_prefix"], lat["n_taken"], lat["floor"]
    n, delta = R * ppp, R * period
    inv = n_prefix - n_taken
    capacity = inv + lat["spare"] + 1

    def landed(n_stages, n_takes):
        eng = Engine()
        f = eng.fifo("f", capacity=capacity, latency=lat["latency"])
        f.stage_burst(list(range(n_stages)), stages[:n_stages],
                      verify_occupancy=False)
        f.take_burst(takes[:n_takes])
        return eng, f

    eng, f = landed(n_prefix, n_taken)
    f._reserved_paired = paired = min(lat["paired"], len(f._reserved))
    f.shift(n, delta, period, floor,
            list(range(n_taken + n, n_prefix + n)))
    twin_eng, twin = landed(n_prefix + n, n_taken + n)
    twin._reserved_paired = paired + n  # each span stage paired a release

    assert (f.pushes, f.pops) == (twin.pushes, twin.pops)
    assert list(f._staged) == list(twin._staged)
    assert list(f._ready) == list(twin._ready)
    # Time-filtered statistics: exact from the fold on, span included.
    end = takes[-1] + 2
    cycles = {floor - 1, floor, floor + delta - 1, floor + delta, end}
    cycles.update(range(floor, floor + 2 * period + 1))
    cycles.update(range(floor + delta - 2 * period, floor + delta + 1))
    cycles.update(data.draw(st.lists(st.integers(floor - 1, end),
                                     max_size=40)))
    for c in sorted(cycles):
        assert f.counts_at(c) == twin.counts_at(c), c
        assert f.max_occupancy_at(c) == twin.max_occupancy_at(c), c
    with pytest.raises(SimulationError, match="folded through"):
        f.counts_at(floor - 2)
    # The slot economy at and after the shifted floor.
    for now in sorted({floor + delta, floor + delta + period // 2,
                       floor + delta + period, end}):
        eng.cycle = twin_eng.cycle = now
        assert f.slot_plan(now) == twin.slot_plan(now), now
        assert list(f._reserved) == list(twin._reserved), now
        assert f._reserved_paired == twin._reserved_paired, now
        assert f.max_occupancy == twin.max_occupancy, now


#: A FIFO near a steady state: 12 stages, two per 8-cycle period, the
#: first 10 taken one cycle after they turn visible.
_PERIOD, _LATENCY = 8, 3
_STAGES = [(i // 2) * _PERIOD + 3 * (i % 2) for i in range(12)]
_FLOOR = 44  # the consumer's next take; the producer's frontier is 48
_GOOD_SHIFT = (20, 80, _PERIOD, _FLOOR, [30, 31])


def _landed():
    eng = Engine()
    f = eng.fifo("f", capacity=16, latency=_LATENCY)
    f.stage_burst(list(range(12)), _STAGES)
    f.take_burst([s + _LATENCY + 1 for s in _STAGES[:10]])
    return eng, f


def test_time_shift_refusals_leave_the_fifo_untouched():
    """What cannot be shifted exactly is refused before any mutation."""
    eng, f = _landed()
    f.shift(*_GOOD_SHIFT)  # the unspoiled FIFO shifts
    assert (f.pushes, f.pops, list(f._staged)) == (32, 30, [30, 31])

    def park(eng, f):      # a process waits on the FIFO's condition
        f.can_pop.waiters.append(object())

    spoilers = {
        "parked waiter": park,
        "boundary link": lambda eng, f: setattr(f, "boundary", True),
    }
    bad_args = {
        "replacement items": (20, 80, _PERIOD, _FLOOR, [30]),
        "per 80 cycles": (30, 80, _PERIOD, _FLOOR, [30, 31]),
    }
    for match, spoil in spoilers.items():
        eng, f = _landed()
        spoil(eng, f)
        before = _fifo_state(f)
        with pytest.raises(SimulationError, match=match):
            f.shift(*_GOOD_SHIFT)
        assert _fifo_state(f) == before, match
    for match, args in bad_args.items():
        eng, f = _landed()
        before = _fifo_state(f)
        with pytest.raises(SimulationError, match=match):
            f.shift(*args)
        assert _fifo_state(f) == before, match


def test_time_shift_lands_over_a_row_visible_at_the_floor():
    """A row already visible at the floor keeps its ready cycle, so the
    shift moves it like any other row: looking at the FIFO first changes
    nothing the shift lands."""
    eng, f = _landed()
    eng.cycle = _FLOOR
    assert len(f) == 1  # the row staged at 40 is visible from 43 on
    f.shift(*_GOOD_SHIFT)
    _, twin = _landed()
    twin.shift(*_GOOD_SHIFT)
    assert _fifo_state(f) == _fifo_state(twin)


def _brute_occ(stages, takes, base, peak, stop):
    """End-of-cycle occupancy and its peak over cycles ``< stop``, one
    cycle at a time."""
    occ = base
    for c in sorted(set(stages) | set(takes)):
        if c >= stop:
            break
        occ += stages.count(c) - takes.count(c)
        peak = max(peak, occ)
    return (occ, peak, sum(c < stop for c in stages),
            sum(c < stop for c in takes))


@settings(deadline=None, max_examples=120)
@given(data=st.data())
def test_occupancy_sweep_paths_match_a_cycle_by_cycle_peak(data):
    """Both of ``_occ_sweep``'s paths — the scalar merge below
    ``_OCC_BULK_MIN`` entries, the NumPy one from it on — read the same
    occupancy and end-of-cycle peak off the logs as a cycle-by-cycle
    replay, with same-cycle stage/take pairs netting out first; and
    ``counts_at`` / ``max_occupancy_at`` agree on the same logs."""
    bulk = fifo_mod._OCC_BULK_MIN
    n = data.draw(st.one_of(st.integers(0, bulk - 1),
                            st.integers(bulk, 3 * bulk)), label="entries")
    span = data.draw(st.integers(1, max(1, n)), label="span")
    cycles = sorted(data.draw(st.lists(st.integers(0, span), min_size=n,
                                       max_size=n), label="cycles"))
    is_stage = data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                         label="is_stage")
    stages = [c for c, s in zip(cycles, is_stage) if s]
    takes = [c for c, s in zip(cycles, is_stage) if not s]
    base = data.draw(st.integers(0, 6), label="base")
    peak = base + data.draw(st.integers(0, 6), label="peak")
    stop = data.draw(st.integers(-2, span + 3), label="stop")

    f = Engine().fifo("f", capacity=4)
    f._occ_stages = stages
    f._occ_takes = takes
    f._occ_base = base
    f._occ_peak = peak
    f._occ_folded_stages = base + 3
    f._occ_folded_takes = 3
    want = _brute_occ(stages, takes, base, peak, stop)
    assert f._occ_sweep(stop) == want
    for forced in (0, 1 << 60):  # every window bulk / every one scalar
        with mock.patch.object(fifo_mod, "_OCC_BULK_MIN", forced):
            assert f._occ_sweep(stop) == want, forced
    if stop >= 0:
        assert f.max_occupancy_at(stop - 1) == want[1]
        assert f.counts_at(stop - 1) == (base + 3 + want[2], 3 + want[3])
