"""Tree-based collective support kernels (the §4.4 extension).

"The SMI reference implementation does not yet implement tree-based
collectives, resulting in a higher congestion in the root rank" (§5.3.4) —
and §4.4 notes the support-kernel design "can also be exploited to offer
different implementations of collectives, such as tree-based schema for
Bcast and Reduce". This module implements that extension:

* **TreeBcastKernel** — a binary tree over communicator positions (rotated
  so the root is position 0). Readiness aggregates up the tree (a node
  reports READY to its parent only after all its children are ready), and
  every node relays each data packet to its at-most-two children while
  delivering elements locally. Latency is O(log P) instead of the linear
  chain's O(P).
* **TreeReduceKernel** — partial sums combine up the same tree: each node
  reduces its children's tile contributions with its local application
  elements and forwards one combined stream to its parent, so the root
  receives O(log P)-deep, 2-wide traffic instead of P-1 concurrent
  streams. Credits propagate down the tree per tile.

Selected per operation via ``OpDecl(..., scheme="tree")``; the ablation
benchmark ``benchmarks/bench_ablation_tree_collectives.py`` quantifies the
gain over the paper's linear schemes.
"""

from __future__ import annotations

from typing import Generator

from ..core.errors import ChannelError
from ..network.packet import OpType, Packet
from ..simulation.conditions import TICK
from .collectives import CollectiveDescriptor, SupportKernel
from .packing import PacketPacker


def _tree_position(desc: CollectiveDescriptor, rank: int) -> tuple:
    """(chain, position, parent rank, child ranks) in the binary tree."""
    comm = desc.comm_ranks
    root_idx = comm.index(desc.root)
    chain = comm[root_idx:] + comm[:root_idx]
    pos = chain.index(rank)
    parent = chain[(pos - 1) // 2] if pos > 0 else None
    children = [chain[c] for c in (2 * pos + 1, 2 * pos + 2)
                if c < len(chain)]
    return chain, pos, parent, children


class TreeBcastKernel(SupportKernel):
    """Binary-tree broadcast with aggregated readiness rendezvous."""

    kind = "bcast"
    scheme = "tree"

    def _serve(self, desc: CollectiveDescriptor) -> Generator:
        _chain, pos, parent, children = _tree_position(desc, self.rank)
        # Readiness aggregates bottom-up: wait for children, then report.
        for _ in children:
            yield from self._expect_control(OpType.SYNC_READY)
        if parent is not None:
            yield from self._send_control(OpType.SYNC_READY, parent)

        if pos == 0:  # root
            if not children:
                # Single-rank communicator: drain the app's pushes.
                for _ in range(desc.count):
                    while not self.app_in.readable:
                        yield self.app_in.can_pop
                    self.app_in.take()
                    yield TICK
                return
            packer = PacketPacker(self.rank, children[0], self.port, self.dtype)
            sent = 0
            while sent < desc.count:
                while not self.app_in.readable:
                    yield self.app_in.can_pop
                value = self.app_in.take()
                sent += 1
                pkt = packer.add(value)
                if pkt is None and sent == desc.count:
                    pkt = packer.flush()
                if pkt is not None:
                    yield from self._fan_out(pkt, children)
                yield TICK
        else:
            received = 0
            while received < desc.count:
                while not self.recv_ep.readable:
                    yield self.recv_ep.can_pop
                pkt = self.recv_ep.take()
                if pkt.op != OpType.DATA:
                    raise ChannelError(f"{self.name}: unexpected {pkt!r}")
                yield TICK
                if children:
                    yield from self._fan_out(pkt, children)
                for value in pkt.elements():
                    while not self.app_out.writable:
                        yield self.app_out.can_push
                    self.app_out.stage(value)
                    yield TICK
                    received += 1

    def _fan_out(self, pkt: Packet, children: list[int]) -> Generator:
        """Send one packet to every child (one send-port cycle each)."""
        for child in children:
            copy = Packet(src=self.rank, dst=child, port=self.port,
                          op=OpType.DATA, count=pkt.count,
                          payload=pkt.payload.copy(), dtype=pkt.dtype)
            while not self.send_ep.writable:
                yield self.send_ep.can_push
            self.send_ep.stage(copy)
            yield TICK


class TreeReduceKernel(SupportKernel):
    """Binary-tree reduction: partial sums combine up, credits flow down."""

    kind = "reduce"
    scheme = "tree"

    def _serve(self, desc: CollectiveDescriptor) -> Generator:
        if desc.reduce_op is None:
            raise ChannelError(f"{self.name}: reduce descriptor without op")
        op = desc.reduce_op
        _chain, pos, parent, children = _tree_position(desc, self.rank)
        tile = self.config.reduce_credits
        remaining = desc.count
        first = True
        while remaining > 0:
            if not first:
                # Credits propagate strictly top-down at tile boundaries:
                # a node waits for its parent's credit and only then
                # releases its children. This ordering guarantees no child
                # DATA for tile t+1 can reach a node still waiting for its
                # own credit (DATA and CREDIT share the receive endpoint).
                if parent is not None:
                    yield from self._expect_control(OpType.CREDIT)
                for child in children:
                    yield from self._send_control(OpType.CREDIT, child)
            first = False
            tile_size = min(tile, remaining)
            acc = op.identity_array(tile_size, self.dtype.np_dtype)
            progress = {child: 0 for child in children}
            local_done = 0
            emitted = 0
            out_packer = (
                PacketPacker(self.rank, parent, self.port, self.dtype)
                if parent is not None else None
            )

            def frontier() -> int:
                low = local_done
                for p in progress.values():
                    if p < low:
                        low = p
                return low

            while emitted < tile_size:
                if emitted < frontier():
                    value = acc[emitted]
                    emitted += 1
                    if parent is None:
                        # Root: deliver the reduced element to the app.
                        while not self.app_out.writable:
                            yield self.app_out.can_push
                        self.app_out.stage(value)
                        yield TICK
                    else:
                        pkt = out_packer.add(value)
                        if pkt is None and emitted == tile_size:
                            pkt = out_packer.flush()
                        if pkt is not None:
                            while not self.send_ep.writable:
                                yield self.send_ep.can_push
                            self.send_ep.stage(pkt)
                        yield TICK
                elif self.recv_ep.readable:
                    pkt = self.recv_ep.take()
                    if pkt.op != OpType.DATA:
                        raise ChannelError(f"{self.name}: unexpected {pkt!r}")
                    yield TICK
                    off = progress[pkt.src]
                    end = off + pkt.count
                    if end > tile_size:
                        raise ChannelError(
                            f"{self.name}: child {pkt.src} overran its tile"
                        )
                    if end > off:
                        # As in the linear root: combine at once, count
                        # the packet's element cycles down.
                        acc[off:end] = op.combine(acc[off:end],
                                                  pkt.elements())
                        yield self.recv_ep.engine.ticks(end - off)
                    progress[pkt.src] = end
                elif self.app_in.readable and local_done < tile_size:
                    value = self.app_in.take()
                    acc[local_done] = op.combine(acc[local_done], value)
                    local_done += 1
                    yield TICK
                elif local_done < tile_size:
                    yield (self.recv_ep.can_pop, self.app_in.can_pop)
                else:
                    yield self.recv_ep.can_pop
            remaining -= tile_size
