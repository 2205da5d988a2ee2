"""Exception hierarchy for the SMI reproduction.

All library errors derive from :class:`SMIError` so callers can catch a single
base type. Specific subclasses distinguish configuration mistakes (detected at
program-build time) from runtime protocol violations (detected while the
simulation runs).
"""

from __future__ import annotations


class SMIError(Exception):
    """Base class for all SMI reproduction errors."""


class ConfigurationError(SMIError):
    """Invalid hardware/program configuration (bad port, topology, sizes...)."""


class TopologyError(ConfigurationError):
    """Malformed interconnect topology description."""


class RoutingError(SMIError):
    """Route generation failed (unreachable rank, deadlock, bad table)."""


class ChannelError(SMIError):
    """Misuse of an SMI channel (type mismatch, over-push, closed channel)."""


class TypeMismatchError(ChannelError):
    """Push/Pop datatype does not match the type the channel was opened with."""


class MessageOverrunError(ChannelError):
    """More elements pushed/popped than the channel's declared count."""


class DeadlockError(SMIError):
    """The simulation reached a state where no process can ever make progress."""


class SimulationError(SMIError):
    """Internal simulation failure (invalid process state, corrupted FIFO...)."""


class ShardWorkerError(SimulationError):
    """A forked shard worker died (was killed, crashed) before reporting."""

    def __init__(self, message: str, shard: int,
                 exitcode: int | None) -> None:
        super().__init__(message)
        self.shard = shard
        self.exitcode = exitcode


class CodegenError(SMIError):
    """Metadata extraction or transport generation failed."""
