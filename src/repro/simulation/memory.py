"""Off-chip DRAM bank model.

The applications of §5.4 are memory-bandwidth-bound. This module models an
FPGA board's DDR banks at the granularity the paper uses: a bank delivers a
fixed number of elements per kernel cycle to the modules reading from it
(e.g. "16 elements per cycle from a single DDR bank", §5.4.2), and
concurrent readers of the same bank share that budget — which is exactly why
the single-FPGA GESUMMV is bottlenecked when two GEMV kernels contend for the
same board's bandwidth (§5.4.1).

The model is deliberately simple (streaming access, per-cycle budget,
first-come arbitration) because the paper's kernels stream sequentially; no
row/bank conflicts are modelled.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..core.errors import ConfigurationError, SimulationError
from .conditions import TICK


class MemoryBank:
    """One DDR bank with a per-cycle element budget shared by its ports."""

    __slots__ = ("engine", "name", "width_elements", "_budget_cycle", "_budget",
                 "total_granted", "readers", "booked_until")

    def __init__(self, engine, name: str, width_elements: int) -> None:
        if width_elements < 1:
            raise ConfigurationError("width_elements must be >= 1")
        self.engine = engine
        self.name = name
        self.width_elements = width_elements
        self._budget_cycle = -1
        self._budget = 0
        self.total_granted = 0
        self.readers: set = set()  # the kernels registered to read it
        self.booked_until = 0      # end of the sole reader's booked read

    def grant(self, requested: int) -> int:
        """Grant up to ``requested`` elements from this cycle's budget."""
        if requested < 0:
            raise SimulationError("negative memory request")
        cycle = self.engine.cycle
        if cycle < self.booked_until:
            raise SimulationError(
                f"bank {self.name!r}: a grant at cycle {cycle} inside a "
                f"read its sole reader booked until {self.booked_until}")
        if cycle != self._budget_cycle:
            self._budget_cycle = cycle
            self._budget = self.width_elements
        granted = min(requested, self._budget)
        self._budget -= granted
        self.total_granted += granted
        return granted

    def sole_reader(self) -> bool:
        """Whether one registered reader has this bank to itself, with
        nothing granted yet this cycle: its per-cycle grants would then
        get the whole width every cycle, so :meth:`book` may stand in
        for them."""
        return len(self.readers) == 1 and self._budget_cycle != self.engine.cycle

    def book(self, elements: int) -> int:
        """Grant ``elements`` at once to the bank's sole reader: the
        cycles its per-cycle grants would take from this one, booked so
        that a grant inside them fails loudly. Returns that cycle count."""
        cycles = -(-elements // self.width_elements)
        self.booked_until = self.engine.cycle + cycles
        self.total_granted += elements
        return cycles

    def utilization(self, cycles: int) -> float:
        """Fraction of peak bandwidth used over ``cycles`` cycles."""
        if cycles <= 0:
            return 0.0
        return self.total_granted / (cycles * self.width_elements)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MemoryBank({self.name}, {self.width_elements}/cycle)"


class MemoryPort:
    """A kernel-side streaming port into a :class:`MemoryBank`.

    ``read``/``write`` are generators that consume simulation cycles
    according to the bank's bandwidth (and contention from other ports).
    """

    __slots__ = ("bank", "name")

    def __init__(self, bank: MemoryBank, name: str) -> None:
        self.bank = bank
        self.name = name

    def read(self, array: np.ndarray, start: int, count: int) -> Generator:
        """Stream ``count`` elements from ``array[start:]``; returns a copy."""
        if start < 0 or start + count > len(array):
            raise SimulationError(
                f"port {self.name!r}: read [{start}, {start + count}) out of "
                f"bounds for array of length {len(array)}"
            )
        remaining = count
        while remaining > 0:
            granted = self.bank.grant(remaining)
            remaining -= granted
            yield TICK
        return np.array(array[start : start + count], copy=True)

    def write(self, array: np.ndarray, start: int, values: np.ndarray) -> Generator:
        """Stream ``values`` into ``array[start:]`` at bank bandwidth."""
        count = len(values)
        if start < 0 or start + count > len(array):
            raise SimulationError(
                f"port {self.name!r}: write [{start}, {start + count}) out of "
                f"bounds for array of length {len(array)}"
            )
        remaining = count
        while remaining > 0:
            granted = self.bank.grant(remaining)
            remaining -= granted
            yield TICK
        array[start : start + count] = values


class BoardMemory:
    """All DDR banks of one FPGA board."""

    def __init__(self, engine, rank: int, num_banks: int, width_elements: int) -> None:
        self.rank = rank
        self.banks = [
            MemoryBank(engine, f"rank{rank}.ddr{i}", width_elements)
            for i in range(num_banks)
        ]

    def port(self, bank_index: int, name: str) -> MemoryPort:
        """Open a named streaming port on one bank."""
        return MemoryPort(self.banks[bank_index], name)
