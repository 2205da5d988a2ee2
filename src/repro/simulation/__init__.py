"""Cycle-level hardware simulation substrate.

This package is the "FPGA" of the reproduction: a deterministic,
event-skipping, cycle-accurate simulator in which SMI's transport layer, the
applications, and the network links run as communicating processes.
"""

from .conditions import (TICK, AnyReadable, CanPop, CanPush, SimEvent,
                         WaitCycles)
from .engine import Engine, Process, RunResult
from .fifo import Fifo
from .memory import BoardMemory, MemoryBank, MemoryPort

__all__ = [
    "TICK",
    "AnyReadable",
    "CanPop",
    "CanPush",
    "SimEvent",
    "WaitCycles",
    "Engine",
    "Process",
    "RunResult",
    "Fifo",
    "BoardMemory",
    "MemoryBank",
    "MemoryPort",
]
