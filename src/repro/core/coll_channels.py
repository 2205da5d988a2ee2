"""Application-side collective channels (§3.2).

"Each collective operation defined by SMI implies a distinct channel type,
open channel operation, and communication primitive." The channel descriptor
talks to the port's support kernel through the element FIFOs created by the
transport builder; opening a channel writes the operation descriptor that
parameterises the generic support kernel (count, root, communicator, op).

API shape notes (the paper specifies Bcast and Reduce; Scatter and Gather
"follow the same scheme", §3.2, but their per-element call signatures are
not spelled out). We expose the streaming-natural forms:

* ``BcastChannel.bcast(value)`` — root passes its next element (returned
  unchanged); non-roots pass None and receive the next element.
* ``ReduceChannel.reduce(value)`` — every rank contributes its next element;
  the root receives the reduced element, others get None.
* ``ScatterChannel``: the root ``push``es ``count * P`` elements in
  communicator-rank order, every rank (root included) ``pop``s its
  ``count``-element segment.
* ``GatherChannel``: every rank ``push``es ``count`` elements, the root
  ``pop``s ``count * P`` elements, sorted by communicator rank (§3.3).
"""

from __future__ import annotations

from typing import Generator

from ..simulation.conditions import TICK
from ..simulation.fifo import Fifo
from ..transport.collectives import CollectiveDescriptor
from .comm import SMIComm
from .datatypes import SMIDatatype
from .errors import ChannelError, MessageOverrunError
from .ops import SMIOp


class CollectiveChannel:
    """Shared state of an open collective channel."""

    kind: str = "?"

    def __init__(
        self,
        count: int,
        dtype: SMIDatatype,
        my_global: int,
        root_global: int,
        port: int,
        comm: SMIComm,
        ctrl: Fifo,
        app_in: Fifo,
        app_out: Fifo,
        reduce_op: SMIOp | None = None,
    ) -> None:
        if count < 0:
            raise ChannelError(f"collective count must be >= 0: {count}")
        self.count = count
        self.dtype = dtype
        self.my_global = my_global
        self.root_global = root_global
        self.is_root = my_global == root_global
        self.port = port
        self.comm = comm
        self.app_in = app_in
        self.app_out = app_out
        self.reduce_op = reduce_op
        self._pushed = 0
        self._popped = 0
        descriptor = CollectiveDescriptor(
            kind=self.kind, count=count, root=root_global,
            comm_ranks=comm.ranks, reduce_op=reduce_op,
        )
        if not ctrl.writable:
            raise ChannelError(
                f"port {port}: too many collective operations opened "
                "back-to-back; the support kernel's descriptor queue is full"
            )
        ctrl.stage(descriptor)  # zero-overhead open (§3.3)

    # -- element plumbing ------------------------------------------------
    # (The per-element calls below — ``bcast`` / ``reduce`` / ``push`` /
    # ``pop`` — each write their three-line element step out: stall,
    # stage or take, ``TICK``. One generator per call, not two.)
    def _stream_interleave(self, values, want: int) -> Generator:
        """Push all of ``values`` while concurrently popping ``want``
        elements; returns the popped elements in order.

        On hardware a root's feed and drain would be two concurrent
        kernels; in a single sequential kernel they must interleave, or
        the finite support-kernel buffers deadlock once ``count`` exceeds
        them (§3.3's no-reliance-on-buffering rule). Pushes have
        priority; one element moves per cycle.
        """
        app_in = self.app_in
        app_out = self.app_out
        total = len(values)
        pushed = 0
        out: list = []
        while pushed < total or len(out) < want:
            want_push = pushed < total
            want_pop = len(out) < want
            if want_push and app_in.writable:
                app_in.stage(values[pushed])
                pushed += 1
                self._pushed += 1
                yield TICK
            elif want_pop and app_out.readable:
                out.append(app_out.take())
                self._popped += 1
                yield TICK
            else:
                conds = []
                if want_push:
                    conds.append(app_in.can_push)
                if want_pop:
                    conds.append(app_out.can_pop)
                yield tuple(conds)
        return out


class BcastChannel(CollectiveChannel):
    """``SMI_Open_bcast_channel`` / ``SMI_Bcast``."""

    kind = "bcast"

    def bcast(self, value=None) -> Generator:
        """One element of the broadcast; call exactly ``count`` times.

        At the root, ``value`` is sent and returned unchanged (the root
        keeps using its local data, Listing 2); elsewhere the received
        element is returned.
        """
        if self._pushed + self._popped >= self.count:
            raise MessageOverrunError(
                f"bcast called more than count={self.count} times"
            )
        if self.is_root:
            if value is None:
                raise ChannelError("root must provide a value to bcast")
            self._pushed += 1
            app_in = self.app_in
            while not app_in.writable:
                yield app_in.can_push
            app_in.stage(value)
            yield TICK
            return value
        self._popped += 1
        app_out = self.app_out
        while not app_out.readable:
            yield app_out.can_pop
        result = app_out.take()
        yield TICK
        return result


class ReduceChannel(CollectiveChannel):
    """``SMI_Open_reduce_channel`` / ``SMI_Reduce``."""

    kind = "reduce"

    def reduce(self, value) -> Generator:
        """Contribute one element; the root returns the reduced element."""
        if self._pushed >= self.count:
            raise MessageOverrunError(
                f"reduce called more than count={self.count} times"
            )
        self._pushed += 1
        app_in = self.app_in
        while not app_in.writable:
            yield app_in.can_push
        app_in.stage(value)
        yield TICK
        if not self.is_root:
            return None
        app_out = self.app_out
        while not app_out.readable:
            yield app_out.can_pop
        result = app_out.take()
        yield TICK
        return result

    def reduce_stream(self, values) -> Generator:
        """Contribute all ``count`` elements as one stream.

        The root interleaves its contribution with draining the reduced
        elements (the same concurrent feed/drain requirement as
        :meth:`ScatterChannel.stream_root` — a sequential root must not
        rely on the support kernel's finite buffers, §3.3) and returns
        the reduced elements in order; non-roots stream their
        contribution and return ``None``.
        """
        values = list(values)
        if len(values) != self.count:
            raise ChannelError(
                f"reduce_stream needs exactly count = {self.count} "
                f"elements, got {len(values)}"
            )
        if self._pushed:
            raise MessageOverrunError(
                "reduce_stream on a channel that already contributed "
                f"{self._pushed} element(s)"
            )
        out = yield from self._stream_interleave(
            values, self.count if self.is_root else 0)
        return out if self.is_root else None


class ScatterChannel(CollectiveChannel):
    """``SMI_Open_scatter_channel`` with streaming push/pop."""

    kind = "scatter"

    def stream_root(self, values) -> Generator:
        """Root helper: push all ``count * P`` elements while concurrently
        collecting the root's own segment; returns that segment.

        See :meth:`CollectiveChannel._stream_interleave` for why the root
        must interleave its two streams.
        """
        if not self.is_root:
            raise ChannelError("stream_root is for the scatter root")
        total = self.count * self.comm.size
        if len(values) != total:
            raise ChannelError(
                f"scatter root must provide count*P = {total} elements, "
                f"got {len(values)}"
            )
        mine = yield from self._stream_interleave(values, self.count)
        return mine

    def push(self, value) -> Generator:
        """Root only: supply the next of ``count * P`` elements."""
        if not self.is_root:
            raise ChannelError("only the scatter root pushes elements")
        total = self.count * self.comm.size
        if self._pushed >= total:
            raise MessageOverrunError(
                f"scatter root already pushed all {total} elements"
            )
        self._pushed += 1
        app_in = self.app_in
        while not app_in.writable:
            yield app_in.can_push
        app_in.stage(value)
        yield TICK

    def pop(self) -> Generator:
        """Every rank: receive the next of its ``count`` elements."""
        if self._popped >= self.count:
            raise MessageOverrunError(
                f"scatter rank already popped its {self.count} elements"
            )
        self._popped += 1
        app_out = self.app_out
        while not app_out.readable:
            yield app_out.can_pop
        result = app_out.take()
        yield TICK
        return result


class GatherChannel(CollectiveChannel):
    """``SMI_Open_gather_channel`` with streaming push/pop."""

    kind = "gather"

    def collect_root(self, my_values) -> Generator:
        """Root helper: contribute ``my_values`` while concurrently
        collecting the full gathered sequence; returns all count*P
        elements sorted by communicator rank.

        See :meth:`CollectiveChannel._stream_interleave` for why the root
        must interleave its two streams.
        """
        if not self.is_root:
            raise ChannelError("collect_root is for the gather root")
        if len(my_values) != self.count:
            raise ChannelError(
                f"gather root must contribute count = {self.count} "
                f"elements, got {len(my_values)}"
            )
        out = yield from self._stream_interleave(
            my_values, self.count * self.comm.size)
        return out

    def push(self, value) -> Generator:
        """Every rank: contribute the next of its ``count`` elements."""
        if self._pushed >= self.count:
            raise MessageOverrunError(
                f"gather rank already pushed its {self.count} elements"
            )
        self._pushed += 1
        app_in = self.app_in
        while not app_in.writable:
            yield app_in.can_push
        app_in.stage(value)
        yield TICK

    def pop(self) -> Generator:
        """Root only: receive the next of ``count * P`` sorted elements."""
        if not self.is_root:
            raise ChannelError("only the gather root pops elements")
        total = self.count * self.comm.size
        if self._popped >= total:
            raise MessageOverrunError(
                f"gather root already popped all {total} elements"
            )
        self._popped += 1
        app_out = self.app_out
        while not app_out.readable:
            yield app_out.can_pop
        result = app_out.take()
        yield TICK
        return result
