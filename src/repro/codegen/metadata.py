"""SMI operation metadata (§4.5, Fig. 8).

The paper's workflow extracts every SMI operation used by the device code
(with a Clang pass) into a metadata file; the code generator then emits a
transport layer tailored to exactly that set of ports. Here the same
metadata is an :class:`OpDecl` list per rank: the Python-AST extractor in
:mod:`repro.codegen.extractor` produces it from kernel source, or programs
declare it explicitly.

"All ports must be known at compile time, such that, within each rank, the
necessary hardware connections between the communication endpoints and the
network can be instantiated" (§2.2) — which is why the transport builder
consumes these declarations, not runtime channel opens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.datatypes import SMIDatatype
from ..core.errors import CodegenError
from ..core.ops import SMIOp

#: Operation kinds and the endpoint hardware each needs.
P2P_KINDS = ("send", "recv")
COLLECTIVE_KINDS = ("bcast", "reduce", "scatter", "gather")
ALL_KINDS = P2P_KINDS + COLLECTIVE_KINDS


@dataclass(frozen=True)
class OpDecl:
    """One declared SMI operation on one port of one rank.

    Attributes
    ----------
    kind:
        "send" / "recv" for point-to-point endpoints, or one of the
        collective kinds. A collective op instantiates a support kernel plus
        both a send and a receive hardware endpoint on its port (§4.4).
    port:
        The port number (0..255); identifies the endpoint within the rank.
    dtype:
        Element datatype carried over this port.
    reduce_op:
        The reduction operator (reduce only).
    buffer_depth:
        Optional override of the endpoint FIFO depth in packets — the
        compile-time buffer size of §4.2 that realises the channel
        asynchronicity degree k (§3.3).
    scheme:
        Collective implementation scheme: "linear" (the paper's reference
        implementation, §4.4) or "tree" (the binary-tree extension the
        paper suggests; Bcast/Reduce only).
    peer:
        Optional static peer rank (destination for "send", source for
        "recv"). When declared, the transport builder narrows its
        flow-liveness analysis to the exact route this operation uses,
        which lets the burst fast path prove more arbiter inputs idle —
        and a send's peer also bounds the built fabric: only the ranks
        on its route are instantiated for it, so traffic sent past the
        declared peer fails at the first dead-end link (a
        :class:`~repro.core.errors.SimulationError`). ``None`` means "any
        rank" (always safe: every rank is built). Routing itself stays
        fully dynamic, and the code generator's inventory still lists
        every rank.
    """

    kind: str
    port: int
    dtype: SMIDatatype
    reduce_op: SMIOp | None = None
    buffer_depth: int | None = None
    scheme: str = "linear"
    peer: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise CodegenError(
                f"unknown op kind {self.kind!r}; expected one of {ALL_KINDS}"
            )
        if self.scheme not in ("linear", "tree"):
            raise CodegenError(
                f"unknown collective scheme {self.scheme!r}"
            )
        if self.scheme == "tree" and self.kind not in ("bcast", "reduce"):
            raise CodegenError(
                f"tree scheme is only implemented for bcast/reduce, "
                f"not {self.kind!r}"
            )
        if not 0 <= self.port <= 255:
            raise CodegenError(
                f"port {self.port} does not fit the 1-byte header field"
            )
        if self.kind == "reduce" and self.reduce_op is None:
            raise CodegenError("reduce ops must declare a reduce_op")
        if self.kind != "reduce" and self.reduce_op is not None:
            raise CodegenError(f"{self.kind} ops must not declare a reduce_op")
        if self.buffer_depth is not None and self.buffer_depth < 1:
            raise CodegenError("buffer_depth must be >= 1 packet")
        if self.peer is not None and not 0 <= self.peer <= 255:
            raise CodegenError(
                f"peer rank {self.peer} does not fit the 1-byte header field"
            )

    @property
    def needs_send_endpoint(self) -> bool:
        return self.kind == "send" or self.kind in COLLECTIVE_KINDS

    @property
    def needs_recv_endpoint(self) -> bool:
        return self.kind == "recv" or self.kind in COLLECTIVE_KINDS

    @property
    def is_collective(self) -> bool:
        return self.kind in COLLECTIVE_KINDS


@dataclass
class RankPlan:
    """All declared operations of one rank."""

    rank: int
    ops: list[OpDecl] = field(default_factory=list)

    def validate(self) -> None:
        """Enforce the port-sharing rules of the interface (§2.2, §3.2).

        Per rank, a port may carry at most one sending use and one receiving
        use (a rank may both send east and receive from west on the same
        port, as in the stencil of Listing 3); a collective claims its port
        exclusively, because its support kernel owns both directions.
        """
        send_users: dict[int, OpDecl] = {}
        recv_users: dict[int, OpDecl] = {}
        collective: dict[int, OpDecl] = {}
        for op in self.ops:
            if op.is_collective:
                for owner in (send_users, recv_users, collective):
                    if op.port in owner:
                        raise CodegenError(
                            f"rank {self.rank}: port {op.port} already used "
                            f"by {owner[op.port].kind!r}; collectives need "
                            "an exclusive port"
                        )
                collective[op.port] = op
                send_users[op.port] = op
                recv_users[op.port] = op
                continue
            if op.port in collective:
                raise CodegenError(
                    f"rank {self.rank}: port {op.port} is owned by a "
                    f"{collective[op.port].kind!r} collective"
                )
            users = send_users if op.kind == "send" else recv_users
            if op.port in users:
                raise CodegenError(
                    f"rank {self.rank}: duplicate {op.kind!r} endpoint on "
                    f"port {op.port}"
                )
            users[op.port] = op
        # Endpoints sharing a port must agree on the element type (§3.1.1).
        for port in set(send_users) & set(recv_users):
            s, r = send_users[port], recv_users[port]
            if s.dtype is not r.dtype and s.dtype != r.dtype:
                raise CodegenError(
                    f"rank {self.rank}: port {port} used with conflicting "
                    f"datatypes {s.dtype.name} and {r.dtype.name}"
                )

    @property
    def ports(self) -> list[int]:
        """All distinct ports, ascending."""
        return sorted({op.port for op in self.ops})

    def iface_of_port(self, active_ifaces: list[int]) -> dict[int, int]:
        """The interface whose CKS/CKR pair serves each port: ports are
        dealt round-robin, in ascending port order, over the rank's
        active interfaces — deterministic, so every rank (and every
        shard) derives any rank's assignment from the metadata alone."""
        return {port: active_ifaces[idx % len(active_ifaces)]
                for idx, port in enumerate(self.ports)}

    def collective_ops(self) -> list[OpDecl]:
        return [op for op in self.ops if op.is_collective]

    def send_ports(self) -> dict[int, OpDecl]:
        return {op.port: op for op in self.ops if op.needs_send_endpoint}

    def recv_ports(self) -> dict[int, OpDecl]:
        return {op.port: op for op in self.ops if op.needs_recv_endpoint}


@dataclass
class ProgramPlan:
    """The full metadata the code generator consumes: one plan per rank."""

    num_ranks: int
    rank_plans: dict[int, RankPlan] = field(default_factory=dict)

    def plan_for(self, rank: int) -> RankPlan:
        if rank not in self.rank_plans:
            self.rank_plans[rank] = RankPlan(rank)
        return self.rank_plans[rank]

    def add(self, rank: int, op: OpDecl) -> None:
        if not 0 <= rank < self.num_ranks:
            raise CodegenError(f"rank {rank} out of range [0, {self.num_ranks})")
        self.plan_for(rank).ops.append(op)

    def validate(self) -> None:
        for plan in self.rank_plans.values():
            plan.validate()

    def total_ops(self) -> int:
        return sum(len(p.ops) for p in self.rank_plans.values())
