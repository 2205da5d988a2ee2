"""Per-kernel SMI context: the API surface application kernels program to.

A kernel function receives one :class:`SMIContext` — the analog of the SMI
header the paper's OpenCL kernels include. It exposes the channel-open
primitives of §3.1–3.2 (names follow the paper, pythonised), plus simulator
conveniences (``store`` for results, ``wait`` for modelling compute cycles,
``memory`` for the board's DRAM banks).
"""

from __future__ import annotations

from typing import Generator

from ..simulation.conditions import WaitCycles
from ..simulation.memory import BoardMemory
from ..transport.builder import RankTransport
from .channel import RecvChannel, SendChannel
from .coll_channels import (
    BcastChannel,
    GatherChannel,
    ReduceChannel,
    ScatterChannel,
)
from .comm import SMIComm
from .config import HardwareConfig
from .datatypes import SMIDatatype
from .errors import ChannelError, ConfigurationError
from .ops import SMIOp


class SMIContext:
    """Everything one rank's kernel can reach."""

    def __init__(
        self,
        rank: int,
        transport: RankTransport,
        config: HardwareConfig,
        engine,
        comm_world: SMIComm,
        stores: dict,
        memory: BoardMemory | None = None,
    ) -> None:
        self.rank = rank
        self.config = config
        self.engine = engine
        self.comm_world = comm_world
        self.memory = memory
        self._transport = transport
        self._stores = stores

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """World size (number of ranks in SMI_COMM_WORLD)."""
        return self.comm_world.size

    @property
    def cycle(self) -> int:
        """Current simulation cycle."""
        return self.engine.cycle

    def comm_rank(self, comm: SMIComm | None = None) -> int:
        """``SMI_Comm_rank``: this rank's index within ``comm``."""
        comm = comm or self.comm_world
        return comm.comm_rank_of(self.rank)

    def comm_size(self, comm: SMIComm | None = None) -> int:
        """``SMI_Comm_size``."""
        return (comm or self.comm_world).size

    def _check_peer(self, kind: str, port: int, other_global: int) -> None:
        """Fail fast when a channel contradicts a declared static peer.

        ``OpDecl.peer`` narrows the builder's flow-liveness analysis —
        and the ranks it builds — to one route; traffic to any other rank
        would cross FIFOs proven idle, or run into a rank never built.
        Catch the contradiction at open time with an actionable error
        instead of tripping the flow-dead guard mid-simulation.
        """
        decl = self._transport.ops_by_port.get((kind, port))
        if (decl is not None and decl.peer is not None
                and decl.peer != other_global):
            raise ChannelError(
                f"rank {self.rank}: {kind} channel on port {port} names "
                f"rank {other_global} but the operation declared "
                f"peer={decl.peer} — fix the OpDecl peer or drop it"
            )

    # ------------------------------------------------------------------
    # Point-to-point (§3.1)
    # ------------------------------------------------------------------
    def open_send_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        destination: int,
        port: int,
        comm: SMIComm | None = None,
    ) -> SendChannel:
        """``SMI_Open_send_channel`` — zero-overhead (§3.3)."""
        comm = comm or self.comm_world
        dst_global = comm.global_rank(destination)
        self._check_peer("send", port, dst_global)
        return SendChannel(
            count, dtype, self.rank, dst_global, port, comm,
            endpoint=self._transport.send_endpoint(port),
            burst_mode=self.config.burst_mode,
        )

    def open_recv_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        source: int,
        port: int,
        comm: SMIComm | None = None,
    ) -> RecvChannel:
        """``SMI_Open_recv_channel``."""
        comm = comm or self.comm_world
        src_global = comm.global_rank(source)
        self._check_peer("recv", port, src_global)
        return RecvChannel(
            count, dtype, src_global, self.rank, port, comm,
            endpoint=self._transport.recv_endpoint(port),
            burst_mode=self.config.burst_mode,
        )

    def open_credited_send_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        destination: int,
        port: int,
        comm: SMIComm | None = None,
        window_packets: int | None = None,
    ):
        """Open a send channel using §3.3's credit-based flow control.

        Requires both a send and a receive endpoint declared on ``port``
        at both ranks (the reverse path carries CREDIT packets).
        """
        from .credited import CreditedSendChannel

        comm = comm or self.comm_world
        dst_global = comm.global_rank(destination)
        self._check_peer("send", port, dst_global)
        self._check_peer("recv", port, dst_global)  # the credit return path
        return CreditedSendChannel(
            count, dtype, self.rank, dst_global, port, comm,
            endpoint=self._transport.send_endpoint(port),
            credit_endpoint=self._transport.recv_endpoint(port),
            window_packets=(window_packets if window_packets is not None
                            else self.config.endpoint_fifo_depth),
        )

    def open_credited_recv_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        source: int,
        port: int,
        comm: SMIComm | None = None,
        window_packets: int | None = None,
    ):
        """Open the receive side of a credited channel (see above)."""
        from .credited import CreditedRecvChannel

        comm = comm or self.comm_world
        src_global = comm.global_rank(source)
        self._check_peer("recv", port, src_global)
        self._check_peer("send", port, src_global)  # the credit return path
        return CreditedRecvChannel(
            count, dtype, src_global, self.rank, port, comm,
            endpoint=self._transport.recv_endpoint(port),
            credit_endpoint=self._transport.send_endpoint(port),
            window_packets=(window_packets if window_packets is not None
                            else self.config.endpoint_fifo_depth),
        )

    @staticmethod
    def push(channel: SendChannel, value) -> Generator:
        """``SMI_Push`` (alias for channel.push)."""
        return channel.push(value)

    @staticmethod
    def pop(channel: RecvChannel) -> Generator:
        """``SMI_Pop`` (alias for channel.pop)."""
        return channel.pop()

    # ------------------------------------------------------------------
    # Collectives (§3.2)
    # ------------------------------------------------------------------
    def _collective_resources(self, port: int, kind: str):
        t = self._transport
        if port not in t.support_kernels:
            raise ChannelError(
                f"rank {self.rank}: no collective declared on port {port}; "
                "collective ports must be known at build time (§2.2)"
            )
        kernel = t.support_kernels[port]
        if kernel.kind != kind:
            raise ChannelError(
                f"rank {self.rank}: port {port} hosts a {kernel.kind!r} "
                f"support kernel, not {kind!r}"
            )
        return t.coll_ctrl[port], t.coll_app_in[port], t.coll_app_out[port]

    def open_bcast_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        port: int,
        root: int,
        comm: SMIComm | None = None,
    ) -> BcastChannel:
        """``SMI_Open_bcast_channel``."""
        comm = comm or self.comm_world
        ctrl, app_in, app_out = self._collective_resources(port, "bcast")
        return BcastChannel(
            count, dtype, self.rank, comm.global_rank(root), port, comm,
            ctrl, app_in, app_out,
        )

    def open_reduce_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        op: SMIOp,
        port: int,
        root: int,
        comm: SMIComm | None = None,
    ) -> ReduceChannel:
        """``SMI_Open_reduce_channel``."""
        comm = comm or self.comm_world
        ctrl, app_in, app_out = self._collective_resources(port, "reduce")
        return ReduceChannel(
            count, dtype, self.rank, comm.global_rank(root), port, comm,
            ctrl, app_in, app_out, reduce_op=op,
        )

    def open_scatter_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        port: int,
        root: int,
        comm: SMIComm | None = None,
    ) -> ScatterChannel:
        """``SMI_Open_scatter_channel`` (interface per §3.2's scheme)."""
        comm = comm or self.comm_world
        ctrl, app_in, app_out = self._collective_resources(port, "scatter")
        return ScatterChannel(
            count, dtype, self.rank, comm.global_rank(root), port, comm,
            ctrl, app_in, app_out,
        )

    def open_gather_channel(
        self,
        count: int,
        dtype: SMIDatatype,
        port: int,
        root: int,
        comm: SMIComm | None = None,
    ) -> GatherChannel:
        """``SMI_Open_gather_channel`` (interface per §3.2's scheme)."""
        comm = comm or self.comm_world
        ctrl, app_in, app_out = self._collective_resources(port, "gather")
        return GatherChannel(
            count, dtype, self.rank, comm.global_rank(root), port, comm,
            ctrl, app_in, app_out,
        )

    # ------------------------------------------------------------------
    # Simulator conveniences
    # ------------------------------------------------------------------
    def store(self, key: str, value) -> None:
        """Record a named result retrievable from the program run."""
        self._stores[(self.rank, key)] = value

    @staticmethod
    def wait(cycles: int):
        """Model ``cycles`` of local computation (yield this)."""
        if cycles < 1:
            raise ConfigurationError("wait needs at least 1 cycle")
        return WaitCycles(cycles)

    def elapsed_us(self) -> float:
        """Simulated time elapsed so far, in microseconds."""
        return self.config.cycles_to_us(self.engine.cycle)
