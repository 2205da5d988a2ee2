"""Collective support kernels (§4.4).

"The implemented SMI transport layer uses a support kernel for coordinating
each collective. Support kernels reside between the application and the
associated CKR/CKS modules, and their logic is specialized to the specific
collective. [...] Both the root and non-root behavior is instantiated at
every rank, to allow the root rank to be specified dynamically."

Linear schemes, as in the reference implementation:

* **Bcast** — every non-root sends SYNC_READY to the root when it opens the
  channel; the root waits for all of them (preventing mixing of subsequent
  transient channels on the same port, §3.3) and then streams the message
  once along the communicator chain; every intermediate rank's support
  kernel delivers elements locally while relaying packets to its successor.
* **Scatter** — the root walks ranks in communicator order; for each, it
  waits for that rank's SYNC_READY and streams its ``count``-element
  segment (its own segment is forwarded locally).
* **Gather** — the root walks ranks in order, sending a GRANT before
  receiving each rank's ``count`` elements, so data arrives pre-sorted
  despite the root's limited buffer space (§3.3).
* **Reduce** — credit-based flow control with a C-element accumulation
  buffer at the root: all ranks stream one tile in parallel (arrival order
  free, by associativity+commutativity), the root combines elementwise,
  forwards the reduced tile to its application, and releases new credits.

Every loop here is the per-element specification: an element that
crosses a FIFO is staged or taken, and stalls, in its own cycle. The one
stretch that faces no FIFO — the reduce root (linear or tree) folding a
received packet into its tile buffer, one element per cycle — combines
the packet with one array operation and then yields one ``TICK`` per
element: the same dispatches in the same calendar slots as the
per-element loop.

Support kernels are *generic* hardware: per-operation parameters (count,
root, communicator) arrive at run time as a descriptor written by the
channel-open primitive — the zero-overhead channel creation of §3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..core.config import HardwareConfig
from ..core.datatypes import SMIDatatype
from ..core.errors import ChannelError, SimulationError
from ..core.ops import SMIOp
from ..network.packet import OpType, Packet
from ..simulation.conditions import TICK
from ..simulation.fifo import Fifo
from .packing import PacketPacker


@dataclass(frozen=True)
class CollectiveDescriptor:
    """Runtime parameters of one collective operation instance."""

    kind: str
    count: int
    root: int                 # global rank of the root
    comm_ranks: tuple         # ordered global ranks of the communicator
    reduce_op: SMIOp | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ChannelError(f"collective count must be >= 0: {self.count}")
        if self.root not in self.comm_ranks:
            raise ChannelError(
                f"root rank {self.root} not part of communicator "
                f"{self.comm_ranks}"
            )
        if len(set(self.comm_ranks)) != len(self.comm_ranks):
            raise ChannelError("communicator contains duplicate ranks")


class SupportKernel:
    """Base class wiring one collective port's hardware resources."""

    kind: str = "?"

    def __init__(
        self,
        rank: int,
        port: int,
        dtype: SMIDatatype,
        config: HardwareConfig,
        ctrl: Fifo,      # descriptors from channel-open
        app_in: Fifo,    # elements from the application (senders/root)
        app_out: Fifo,   # elements to the application (receivers/root)
        send_ep: Fifo,   # packets towards the paired CKS
        recv_ep: Fifo,   # packets from the paired CKR
    ) -> None:
        self.rank = rank
        self.port = port
        self.dtype = dtype
        self.config = config
        self.ctrl = ctrl
        self.app_in = app_in
        self.app_out = app_out
        self.send_ep = send_ep
        self.recv_ep = recv_ep
        self.name = f"rank{rank}.{self.kind}{port}"
        self.proc = None  # engine Process handle, set by the builder

    # ------------------------------------------------------------------
    # Common sub-behaviours
    # ------------------------------------------------------------------
    def _send_control(self, op: OpType, dst: int) -> Generator:
        """Emit a zero-payload control packet (1 cycle + backpressure)."""
        yield from self._send_packet(
            Packet(src=self.rank, dst=dst, port=self.port, op=op))

    def _send_packet(self, pkt: Packet) -> Generator:
        while not self.send_ep.writable:
            yield self.send_ep.can_push
        self.send_ep.stage(pkt)
        yield TICK

    def _recv_packet(self) -> Generator:
        while not self.recv_ep.readable:
            yield self.recv_ep.can_pop
        pkt = self.recv_ep.take()
        yield TICK
        return pkt

    def _expect_control(self, op: OpType) -> Generator:
        pkt = yield from self._recv_packet()
        if pkt.op != op:
            raise ChannelError(
                f"{self.name}: expected {op.name}, received {pkt!r}"
            )
        return pkt

    def _app_in_to_app_out(self, count: int) -> Generator:
        """Move ``count`` local elements from app_in to app_out, 1/cycle."""
        for _ in range(count):
            while not self.app_in.readable:
                yield self.app_in.can_pop
            value = self.app_in.take()
            while not self.app_out.writable:
                yield self.app_out.can_push
            self.app_out.stage(value)
            yield TICK

    def _stream_app_to_network(self, dst: int, count: int) -> Generator:
        """Pack ``count`` app elements into DATA packets towards ``dst``.

        One element per cycle; a filled packet stages into ``send_ep`` in
        its last element's cycle, later under endpoint backpressure.
        """
        app_in = self.app_in
        send_ep = self.send_ep
        packer = PacketPacker(self.rank, dst, self.port, self.dtype)
        for _ in range(count):
            while not app_in.readable:
                yield app_in.can_pop
            pkt = packer.add(app_in.take())
            if pkt is not None:
                while not send_ep.writable:
                    yield send_ep.can_push
                send_ep.stage(pkt)
            yield TICK
        tail = packer.flush()
        if tail is not None:
            yield from self._send_packet(tail)

    def _stream_network_to_app(self, count: int) -> Generator:
        """Unpack ``count`` DATA elements from recv_ep into app_out.

        The receive-side counterpart of :meth:`_stream_app_to_network`:
        one cycle to take a packet, then one element per cycle into
        ``app_out``.
        """
        recv_ep = self.recv_ep
        app_out = self.app_out
        received = 0
        while received < count:
            while not recv_ep.readable:
                yield recv_ep.can_pop
            pkt = recv_ep.take()
            if pkt.op != OpType.DATA:
                raise ChannelError(f"{self.name}: unexpected {pkt!r}")
            yield TICK
            for value in pkt.elements():
                while not app_out.writable:
                    yield app_out.can_push
                app_out.stage(value)
                yield TICK
                received += 1
        return received

    # ------------------------------------------------------------------
    def process(self, engine) -> Generator:
        """Serve collective operations forever (spawned as a daemon)."""
        while True:
            while not self.ctrl.readable:
                yield self.ctrl.can_pop
            desc: CollectiveDescriptor = self.ctrl.take()
            yield TICK
            if desc.kind != self.kind:
                raise SimulationError(
                    f"{self.name}: descriptor kind {desc.kind!r} does not "
                    f"match this support kernel"
                )
            yield from self._serve(desc)

    def _serve(self, desc: CollectiveDescriptor) -> Generator:
        raise NotImplementedError  # pragma: no cover


class BcastKernel(SupportKernel):
    """Pipelined chain broadcast with per-rank readiness rendezvous."""

    kind = "bcast"

    def _serve(self, desc: CollectiveDescriptor) -> Generator:
        comm = desc.comm_ranks
        root_idx = comm.index(desc.root)
        chain = comm[root_idx:] + comm[:root_idx]
        pos = chain.index(self.rank)
        successor = chain[pos + 1] if pos + 1 < len(chain) else None

        if self.rank == desc.root:
            # Rendezvous: every receiving rank announces readiness (§3.3).
            for _ in range(len(chain) - 1):
                yield from self._expect_control(OpType.SYNC_READY)
            if successor is not None:
                yield from self._stream_app_to_network(successor, desc.count)
            else:
                # Single-rank communicator: drain the app's pushes.
                for _ in range(desc.count):
                    while not self.app_in.readable:
                        yield self.app_in.can_pop
                    self.app_in.take()
                    yield TICK
        else:
            yield from self._send_control(OpType.SYNC_READY, desc.root)
            # Receive, deliver locally, and relay down the chain.
            received = 0
            while received < desc.count:
                received += yield from self._relay_deliver_step(successor)

    def _relay_deliver_step(self, successor) -> Generator:
        """One packet of the bcast relay+deliver loop."""
        recv_ep = self.recv_ep
        app_out = self.app_out
        while not recv_ep.readable:
            yield recv_ep.can_pop
        pkt = recv_ep.take()
        if pkt.op != OpType.DATA:
            raise ChannelError(f"{self.name}: unexpected {pkt!r}")
        if successor is not None:
            relay = Packet(
                src=self.rank, dst=successor, port=self.port,
                op=OpType.DATA, count=pkt.count,
                payload=pkt.payload.copy(), dtype=pkt.dtype,
            )
            while not self.send_ep.writable:
                yield self.send_ep.can_push
            self.send_ep.stage(relay)
        yield TICK
        elements = pkt.elements()
        for value in elements:
            while not app_out.writable:
                yield app_out.can_push
            app_out.stage(value)
            yield TICK
        return len(elements)

class ScatterKernel(SupportKernel):
    """Linear scatter: per-rank rendezvous, segments sent in order (Fig. 5)."""

    kind = "scatter"

    def _serve(self, desc: CollectiveDescriptor) -> Generator:
        if self.rank == desc.root:
            ready: set[int] = set()
            for target in desc.comm_ranks:
                if target == self.rank:
                    yield from self._app_in_to_app_out(desc.count)
                    continue
                # Wait for this rank's readiness; READYs may arrive in any
                # order, the root consumes them as they come (Fig. 5 order
                # applies to the data segments, which are strictly ordered).
                while target not in ready:
                    pkt = yield from self._expect_control(OpType.SYNC_READY)
                    ready.add(pkt.src)
                yield from self._stream_app_to_network(target, desc.count)
        else:
            yield from self._send_control(OpType.SYNC_READY, desc.root)
            yield from self._stream_network_to_app(desc.count)


class GatherKernel(SupportKernel):
    """Linear gather: the root grants each rank its turn (§3.3, Fig. 5)."""

    kind = "gather"

    def _serve(self, desc: CollectiveDescriptor) -> Generator:
        if self.rank == desc.root:
            for source in desc.comm_ranks:
                if source == self.rank:
                    yield from self._app_in_to_app_out(desc.count)
                    continue
                yield from self._send_control(OpType.GRANT, source)
                yield from self._stream_network_to_app(desc.count)
        else:
            yield from self._expect_control(OpType.GRANT)
            yield from self._stream_app_to_network(desc.root, desc.count)


class ReduceKernel(SupportKernel):
    """Credit-based streaming reduction (C-element tiles at the root)."""

    kind = "reduce"

    def _serve(self, desc: CollectiveDescriptor) -> Generator:
        if desc.reduce_op is None:
            raise ChannelError(f"{self.name}: reduce descriptor without op")
        tile = self.config.reduce_credits
        if self.rank == desc.root:
            return self._serve_root(desc, tile)
        return self._serve_leaf(desc, tile)

    def _serve_root(self, desc: CollectiveDescriptor, tile: int) -> Generator:
        """Root side: combine arrivals into the tile buffer, emit the
        reduced frontier, release credits."""
        op = desc.reduce_op
        app_in = self.app_in
        app_out = self.app_out
        recv_ep = self.recv_ep
        others = [r for r in desc.comm_ranks if r != self.rank]
        remaining = desc.count
        while remaining > 0:
            tile_size = min(tile, remaining)
            acc = op.identity_array(tile_size, self.dtype.np_dtype)
            progress = {r: 0 for r in others}
            # Elements fully reduced so far — the frontier — are those
            # every rank has contributed to: the local application up to
            # ``local_done``, every other rank up to ``remote_done``.
            remote_done = 0 if others else tile_size
            local_done = 0
            emitted = 0

            # Combine contributions as they arrive — order-free across
            # ranks thanks to associativity + commutativity (§3.3) — and
            # emit each element as soon as it is complete, so the root
            # application's per-element SMI_Reduce calls stream naturally.
            while emitted < tile_size:
                if emitted < local_done and emitted < remote_done:
                    while not app_out.writable:
                        yield app_out.can_push
                    app_out.stage(acc[emitted])
                    emitted += 1
                    yield TICK
                elif recv_ep.readable:
                    pkt = recv_ep.take()
                    if pkt.op != OpType.DATA:
                        raise ChannelError(f"{self.name}: unexpected {pkt!r}")
                    yield TICK
                    off = progress[pkt.src]
                    end = off + pkt.count
                    if end > tile_size:
                        raise ChannelError(
                            f"{self.name}: rank {pkt.src} overran its tile "
                            f"({off}+{pkt.count} > {tile_size}) — credit "
                            "protocol violation"
                        )
                    if end > off:
                        # One element per cycle, and nothing here faces
                        # a FIFO: combine the packet at once and count
                        # its cycles down. ``progress`` moves when the
                        # last element's cycle is over, as the frontier
                        # (the only reader of ``acc``) expects.
                        acc[off:end] = op.combine(acc[off:end],
                                                  pkt.elements())
                        for _ in range(end - off):
                            yield TICK
                    progress[pkt.src] = end
                    remote_done = min(progress.values())
                elif app_in.readable and local_done < tile_size:
                    value = app_in.take()
                    acc[local_done] = op.combine(acc[local_done], value)
                    local_done += 1
                    yield TICK
                elif local_done < tile_size:
                    yield (recv_ep.can_pop, app_in.can_pop)
                else:
                    # Local contribution done for this tile: the app may
                    # already be pushing the next tile, so only the network
                    # can unblock us here.
                    yield recv_ep.can_pop
            remaining -= tile_size
            # Release new credits so every rank may stream the next tile.
            if remaining > 0:
                for target in others:
                    yield from self._send_control(OpType.CREDIT, target)

    def _serve_leaf(self, desc: CollectiveDescriptor, tile: int) -> Generator:
        remaining = desc.count
        first = True
        while remaining > 0:
            if not first:
                # Wait for the root's credit release before the next tile.
                yield from self._expect_control(OpType.CREDIT)
            first = False
            tile_size = min(tile, remaining)
            yield from self._stream_app_to_network(desc.root, tile_size)
            remaining -= tile_size


SUPPORT_KERNELS = {
    "bcast": BcastKernel,
    "scatter": ScatterKernel,
    "gather": GatherKernel,
    "reduce": ReduceKernel,
}


def kernel_class(kind: str, scheme: str):
    """Support kernel class for (kind, scheme); see tree_collectives."""
    if scheme == "linear":
        return SUPPORT_KERNELS[kind]
    from .tree_collectives import TreeBcastKernel, TreeReduceKernel

    tree = {"bcast": TreeBcastKernel, "reduce": TreeReduceKernel}
    try:
        return tree[kind]
    except KeyError:
        raise SimulationError(
            f"no {scheme!r} support kernel for collective {kind!r}"
        ) from None
