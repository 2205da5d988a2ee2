"""Unit tests for the DRAM bank bandwidth model."""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.simulation import Engine
from repro.simulation.memory import BoardMemory, MemoryBank, MemoryPort


def test_single_reader_rate_limited_by_bank_width():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=16)
    port = MemoryPort(bank, "r0")
    data = np.arange(1600, dtype=np.float32)
    out = {}

    def reader():
        chunk = yield from port.read(data, 0, 1600)
        out["chunk"] = chunk
        out["cycles"] = eng.cycle

    eng.spawn(reader, "r")
    eng.run()
    np.testing.assert_array_equal(out["chunk"], data)
    # 1600 elements at 16/cycle = 100 cycles.
    assert out["cycles"] == 100


def test_two_readers_share_bank_bandwidth():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=16)
    data = np.arange(800, dtype=np.float32)
    ends = {}

    def reader(tag):
        port = MemoryPort(bank, tag)

        def proc():
            yield from port.read(data, 0, 800)
            ends[tag] = eng.cycle

        return proc

    eng.spawn(reader("a"), "a")
    eng.spawn(reader("b"), "b")
    eng.run()
    # Two streams of 800 elements over a 16/cycle bank: ~100 cycles total,
    # i.e. each stream effectively sees half the bandwidth.
    assert max(ends.values()) == pytest.approx(100, abs=2)


def test_two_banks_are_independent():
    eng = Engine()
    board = BoardMemory(eng, rank=0, num_banks=2, width_elements=16)
    data = np.arange(800, dtype=np.float32)
    ends = {}

    def reader(bank_idx, tag):
        port = board.port(bank_idx, tag)

        def proc():
            yield from port.read(data, 0, 800)
            ends[tag] = eng.cycle

        return proc

    eng.spawn(reader(0, "a"), "a")
    eng.spawn(reader(1, "b"), "b")
    eng.run()
    # No contention: both finish in ~50 cycles.
    assert max(ends.values()) == pytest.approx(50, abs=2)


def test_write_stores_values_at_bandwidth():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=8)
    port = MemoryPort(bank, "w0")
    dest = np.zeros(64, dtype=np.float32)
    values = np.arange(64, dtype=np.float32)
    cycles = {}

    def writer():
        yield from port.write(dest, 0, values)
        cycles["end"] = eng.cycle

    eng.spawn(writer, "w")
    eng.run()
    np.testing.assert_array_equal(dest, values)
    assert cycles["end"] == 8  # 64 / 8 per cycle


def test_read_returns_copy():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=4)
    port = MemoryPort(bank, "r0")
    data = np.arange(8, dtype=np.int32)
    out = {}

    def reader():
        chunk = yield from port.read(data, 0, 8)
        out["chunk"] = chunk

    eng.spawn(reader, "r")
    eng.run()
    out["chunk"][0] = 999
    assert data[0] == 0


def test_out_of_bounds_access_rejected():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=4)
    port = MemoryPort(bank, "r0")
    data = np.zeros(10)

    def bad_reader():
        yield from port.read(data, 5, 10)

    eng.spawn(bad_reader, "r")
    with pytest.raises(SimulationError, match="out of bounds"):
        eng.run()


def test_bank_utilization_metric():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=10)
    port = MemoryPort(bank, "r0")
    data = np.zeros(50)

    def reader():
        yield from port.read(data, 0, 50)

    eng.spawn(reader, "r")
    eng.run()
    assert bank.total_granted == 50
    assert bank.utilization(eng.cycle) == pytest.approx(1.0)
    assert bank.utilization(0) == 0.0


def test_a_booked_read_refuses_other_grants():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=16)
    bank.readers.add("gemv")
    assert bank.sole_reader()
    assert bank.book(40) == 3 and bank.total_granted == 40
    with pytest.raises(SimulationError, match="booked until 3"):
        bank.grant(1)


def test_a_sole_reader_needs_the_whole_cycle_budget():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=16)
    bank.readers.add("gemv")
    bank.grant(4)  # an unregistered port took part of this cycle's budget
    assert not bank.sole_reader()
    other = MemoryBank(eng, "b1", width_elements=16)
    other.readers.update(("gemvA", "gemvB"))
    assert not other.sole_reader()
