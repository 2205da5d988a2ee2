"""Program builder: declare kernels, build the transport, run the cluster.

This orchestrates the full development workflow of Fig. 8 inside one object:

1. kernels are registered per rank (MPMD) or for all ranks (SPMD);
2. the metadata extractor collects every SMI operation they use;
3. the route generator turns the topology into routing tables;
4. the transport builder instantiates CKS/CKR pairs, FIFOs and support
   kernels ("the generated code");
5. ``run()`` executes everything on the cycle engine and returns results.

Changing the topology or the number of ranks only changes steps 3–5 — the
program ("bitstream") is untouched, which is the flexibility argument of
§4.3/§5.4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..codegen.extractor import extract_ops
from ..codegen.metadata import OpDecl, ProgramPlan
from ..network.routing import Routes, compute_routes
from ..network.topology import Topology
from ..simulation.engine import Engine
from ..simulation.memory import BoardMemory
from ..transport.builder import Transport, build_transport
from .comm import SMIComm
from .config import NOCTUA, HardwareConfig, MemoryConfig
from .context import SMIContext
from .errors import ConfigurationError

KernelFn = Callable[[SMIContext], object]


@dataclass
class KernelSpec:
    """One registered kernel and the ranks it is instantiated on."""

    fn: KernelFn
    ranks: list[int]
    name: str
    explicit_ops: list[OpDecl] | None = None


@dataclass
class ProgramResult:
    """Outcome of a program run."""

    cycles: int
    elapsed_us: float
    reason: str
    stores: dict
    returns: dict
    engine: Engine
    transport: Transport
    routes: Routes

    @property
    def completed(self) -> bool:
        return self.reason == "completed"

    def store(self, rank: int, key: str):
        """Value saved by ``smi.store(key, ...)`` on ``rank``."""
        return self.stores[(rank, key)]


class SMIProgram:
    """A multi-FPGA SMI program over a given interconnect topology."""

    def __init__(
        self,
        topology: Topology,
        config: HardwareConfig = NOCTUA,
        routing_scheme: str = "auto",
        memory: MemoryConfig | None = None,
        partition=None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.routing_scheme = routing_scheme
        self.memory_config = memory
        # Sharded backends only: an explicit fabric cut — either a
        # repro.shard.Partition or a list of per-shard rank lists —
        # overriding the automatic min-cut partitioner; its shard count
        # must equal config.shards. Ignored by the sequential backend.
        self.partition = partition
        self._kernels: list[KernelSpec] = []
        self._manual_decls: list[tuple[int, OpDecl]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _resolve_ranks(self, rank, ranks) -> list[int]:
        if rank is not None and ranks is not None:
            raise ConfigurationError("pass either rank= or ranks=, not both")
        if rank is not None:
            ranks = [rank]
        elif ranks is None or (isinstance(ranks, str) and ranks == "all"):
            ranks = range(self.topology.num_ranks)
        out = sorted(set(int(r) for r in ranks))
        for r in out:
            if not 0 <= r < self.topology.num_ranks:
                raise ConfigurationError(
                    f"kernel rank {r} out of range [0, {self.topology.num_ranks})"
                )
        return out

    def kernel(
        self,
        rank: int | None = None,
        ranks: Iterable[int] | str | None = None,
        name: str | None = None,
        ops: list[OpDecl] | None = None,
    ):
        """Decorator registering a kernel.

        ``rank=i`` instantiates it on one rank (MPMD); ``ranks='all'`` (the
        default) on every rank (SPMD). ``ops`` overrides AST metadata
        extraction for dynamically-generated code.
        """

        def decorate(fn: KernelFn) -> KernelFn:
            self.add_kernel(fn, rank=rank, ranks=ranks, name=name, ops=ops)
            return fn

        return decorate

    def add_kernel(
        self,
        fn: KernelFn,
        rank: int | None = None,
        ranks: Iterable[int] | str | None = None,
        name: str | None = None,
        ops: list[OpDecl] | None = None,
    ) -> KernelSpec:
        """Non-decorator kernel registration."""
        spec = KernelSpec(
            fn=fn,
            ranks=self._resolve_ranks(rank, ranks),
            name=name or fn.__name__,
            explicit_ops=ops,
        )
        self._kernels.append(spec)
        return spec

    def declare(self, rank: int, op: OpDecl) -> None:
        """Manually add an operation declaration (codegen metadata)."""
        self._manual_decls.append((rank, op))

    # ------------------------------------------------------------------
    # Build + run
    # ------------------------------------------------------------------
    def build_plan(self) -> ProgramPlan:
        """Collect the full operation metadata (extractor output)."""
        plan = ProgramPlan(self.topology.num_ranks)
        seen: dict[int, set] = {}
        def _add(rank: int, decl: OpDecl) -> None:
            key = (decl.kind, decl.port, decl.dtype.name,
                   decl.reduce_op.name if decl.reduce_op else None,
                   decl.buffer_depth, decl.scheme)
            bucket = seen.setdefault(rank, set())
            if key in bucket:
                return
            bucket.add(key)
            plan.add(rank, decl)

        for spec in self._kernels:
            decls = (
                spec.explicit_ops
                if spec.explicit_ops is not None
                else extract_ops(spec.fn)
            )
            for rank in spec.ranks:
                for decl in decls:
                    _add(rank, decl)
        for rank, decl in self._manual_decls:
            _add(rank, decl)
        plan.validate()
        return plan

    def generate_report(self):
        """The code generator's hardware inventory for this program
        (Fig. 8's generated-source analog; see :mod:`repro.codegen`).

        It is the bitstream, so it lists every rank of the topology — the
        simulator's build (``run()``) instantiates only the ranks the
        declared flows reach, which changes no simulated cycle."""
        from ..codegen.generator import generate

        return generate(self.build_plan(), self.topology, self.config)

    def kernel_ranks(self) -> set[int]:
        """Every rank some registered kernel runs on — built by the
        transport whether or not it declares an operation."""
        return {rank for spec in self._kernels for rank in spec.ranks}

    def spawn_kernels(self, engine: Engine, transport,
                      ranks: frozenset[int] | None = None
                      ) -> tuple[dict, list[tuple[str, int, object]]]:
        """Spawn every registered kernel instance on ``ranks`` (all ranks
        when ``None``; a shard passes its own) onto ``engine``, each with
        its :class:`SMIContext` over ``transport`` and, if the program
        declares memory, its board's DDR banks. Returns the ``stores``
        dict the kernels share and their ``(name, rank, process)``
        list."""
        mem = self.memory_config
        memories: dict[int, BoardMemory] = {} if mem is None else {
            rank: BoardMemory(engine, rank, num_banks=mem.num_banks,
                              width_elements=mem.bank_width_elements)
            for rank in (range(self.topology.num_ranks) if ranks is None
                         else ranks)}
        comm_world = SMIComm.world(self.topology.num_ranks)
        stores: dict = {}
        procs: list[tuple[str, int, object]] = []
        for spec in self._kernels:
            for rank in spec.ranks:
                if ranks is not None and rank not in ranks:
                    continue
                ctx = SMIContext(
                    rank=rank,
                    transport=transport.rank(rank),
                    config=self.config,
                    engine=engine,
                    comm_world=comm_world,
                    stores=stores,
                    memory=memories.get(rank),
                )
                proc = engine.spawn(
                    spec.fn(ctx), name=f"{spec.name}@rank{rank}"
                )
                procs.append((spec.name, rank, proc))
        return stores, procs

    def run(self, max_cycles: int | None = None,
            trace_out: str | None = None) -> ProgramResult:
        """Build everything and simulate until all kernels finish.

        ``HardwareConfig.backend`` selects the execution engine: the
        sequential single-engine path below, or the sharded backends
        (:mod:`repro.shard`), which partition the fabric, simulate the
        shards on separate engines (optionally in forked worker
        processes) and synchronise them in conservative epochs —
        cycle-exact either way.

        ``trace_out`` names a file to write the run's merged trace
        timeline to (``HardwareConfig.trace`` must be on for there to be
        one): ``.json`` gets Chrome/Perfetto trace-event JSON,
        ``.jsonl`` the compact line form. Programmatic users can skip
        the file and read ``result.engine.trace`` (sequential) or
        ``result.transport.trace`` (sharded, pre-merged) directly.
        """
        if not self._kernels:
            raise ConfigurationError("program has no kernels")
        if self.config.backend != "sequential":
            from ..shard.backend import run_sharded

            result = run_sharded(self, max_cycles)
            if trace_out:
                _export_trace(result, trace_out)
            return result
        engine = Engine()
        # Flight recorder (None unless config.trace): the zero-overhead
        # gate for every instrumented site in this engine's fabric.
        from ..trace import recorder_from_config

        engine.trace = recorder_from_config(self.config)
        routes = compute_routes(self.topology, self.routing_scheme)
        plan = self.build_plan()
        transport = build_transport(
            engine, plan, routes, self.config,
            kernel_ranks=self.kernel_ranks(),
        )
        stores, procs = self.spawn_kernels(engine, transport)
        outcome = engine.run(max_cycles=max_cycles)
        returns = {
            (name, rank): proc.result for name, rank, proc in procs
        }
        result = ProgramResult(
            cycles=outcome.cycles,
            elapsed_us=self.config.cycles_to_us(outcome.cycles),
            reason=outcome.reason,
            stores=stores,
            returns=returns,
            engine=engine,
            transport=transport,
            routes=routes,
        )
        if trace_out:
            _export_trace(result, trace_out)
        return result


def _export_trace(result: ProgramResult, out: str) -> None:
    """Write the run's merged trace timeline to ``out`` (if it has one)."""
    from ..trace import merge_segments, write_trace

    merged = getattr(result.transport, "trace", None)
    if merged is None:
        recorder = getattr(result.engine, "trace", None)
        if recorder is None:
            return
        merged = merge_segments([recorder.segment()])
    write_trace(merged, out)
