"""Execution backends: sequential reference, in-process shards, workers.

Three ways to execute an :class:`~repro.core.program.SMIProgram`,
selected by ``HardwareConfig.backend``:

* **sequential** — the reference: one
  :class:`~repro.simulation.engine.Engine` simulates the whole fabric
  (this is the path inside ``SMIProgram.run`` itself; this module never
  sees it).
* **sharded** — the fabric is partitioned
  (:mod:`repro.shard.partitioner`) and each shard gets its own engine
  and its own transport plane with boundary proxies at the cut
  (:mod:`repro.shard.proxy`). Shards exchange boundary batches in the
  packed binary wire format of :mod:`repro.shard.wire` (one struct
  header + contiguous ndarray blocks per boundary per exchange — not
  one pickle per packet) through per-boundary SPSC rings, and self-pace
  between barriers — draining peers' floors and publishing their own
  as soon as they are proven; the epoch synchroniser
  (:mod:`repro.shard.timesync`) is only the barrier that decides
  termination, deadlock and ``max_cycles``. Here every shard's loop is
  called synchronously, in shard order, inside the current process and
  the rings live in a private buffer: no parallelism, fully
  deterministic — the cycle-exactness reference for the exchange
  protocol and what the equivalence/fuzz suites sweep.
* **process** — the same shards and the *same* exchange loop over the
  same rings; only where the loop runs (a forked worker process per
  shard, commanded over a control pipe) and which buffer the rings are
  carved from (a pre-fork shared-memory block) differ. Fork (not spawn)
  start is required: the shard runtimes — application kernel generators
  included — are built in the parent and inherited by the workers, so
  only boundary records and final reports ever cross the process
  boundary.

On completed runs all backends produce identical
``ProgramResult.cycles``, identical per-rank stores/returns, and
identical per-FIFO push/pop counts and occupancy peaks; only simulator
wall-clock differs. (A ``max_cycles``-truncated run pins
``cycles``/``reason`` only: per-FIFO counters tally *committed* events,
and the planes legitimately commit different distances past an
arbitrary cap — exactly as the sequential burst plane already differs
from per-flit there.) Speedup comes from genuine multi-core
parallelism in the process backend and scales with fabric size over
cut size; every shard reports a per-phase wall-clock breakdown
(compute / serialize / IPC wait, surfaced on ``ProgramResult.transport
.shard_timing``) so the overheads are measured, not guessed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from ..core.config import HardwareConfig
from ..core.errors import (ConfigurationError, ShardWorkerError,
                           SimulationError)
from ..core.program import ProgramResult, SMIProgram
from ..network.routing import compute_routes
from ..simulation.engine import FOREVER, Engine
from ..simulation.stats import PlannerStats, collect_planner_stats
from ..trace import merge_segments, new_phase, recorder_from_config
from ..transport.builder import build_transport
from .partitioner import Partition, partition_topology, validate_cut
from .proxy import BoundaryRx, BoundaryTx
from .timesync import BoundaryChannel, EpochReport, EpochSynchronizer
from .wire import (
    ShmFabric,
    pack_ack_records,
    pack_ship_records,
    unpack_record,
)

#: Maximum self-paced exchange iterations a worker runs per coordinator
#: round (:meth:`_ShardRuntime.epoch_stream`). Deeper values amortise
#: coordinator round-trips further; the cap keeps the global
#: termination/deadlock checks, which need a barrier, regularly
#: scheduled.
INNER_ROUNDS = 64


@dataclass
class FinalReport:
    """One shard's end-of-run payload (picklable for the process backend)."""

    stores: dict
    returns: dict
    fifo_stats: dict
    planner: PlannerStats
    #: Per-phase wall-clock breakdown in the canonical schema
    #: (:data:`repro.trace.TIMING_FIELDS`, which the trace exporter's
    #: wall lanes consume):
    #: ``compute_s`` (engine ``run_until``), ``serialize_s`` (record
    #: codec + ring work), ``ipc_wait_s`` (blocked on the
    #: control pipe), plus ``inner_rounds`` (self-paced exchange
    #: iterations) and ``outer_rounds`` (coordinator commands served).
    timing: dict = field(default_factory=new_phase)
    #: The shard's flight-recorder segment
    #: (:meth:`repro.trace.TraceRecorder.segment`) when tracing is on,
    #: else ``None``. Plain builtins only — it rides the same
    #: control-pipe pickle as the rest of the report.
    trace: dict | None = None


class _ShardLinks:
    """One shard's half of the boundary ring fabric.

    Holds the rings this shard reads and writes, local mirrors of the
    floors its conservative bound depends on (floors travel *inside*
    ring records, so a floor is never observed before the batch it
    bounds — no separate-cell races), a FIFO backlog per ring for
    records that did not fit (never dropped, retried on the next
    publish), and the last published floors so empty records are only
    written when a floor actually moved.
    """

    def __init__(self, index: int, channels, fabric: ShmFabric) -> None:
        self.index = index
        self.key_ids = fabric.key_ids
        self.keys_by_id = fabric.keys_by_id
        self.max_record = fabric.ring_bytes - 4
        self.in_ship: dict = {}
        self.in_ack: dict = {}
        self.out_ship: dict = {}
        self.out_ack: dict = {}
        self.horizon: dict = {}    # incoming cut links (this shard is dst)
        self.ack_floor: dict = {}  # outgoing cut links (this shard is src)
        for ch in channels:
            if ch.src_shard == index:
                self.out_ship[ch.key] = fabric.ship_rings[ch.key]
                self.in_ack[ch.key] = fabric.ack_rings[ch.key]
                self.ack_floor[ch.key] = ch.latency
            if ch.dst_shard == index:
                self.in_ship[ch.key] = fabric.ship_rings[ch.key]
                self.out_ack[ch.key] = fabric.ack_rings[ch.key]
                self.horizon[ch.key] = ch.latency
        self._backlog: dict = {}
        self._last_pub: dict = {}

    # -- inbound ------------------------------------------------------
    def drain(self, runtime: "_ShardRuntime") -> int:
        """Apply every readable record; returns items applied."""
        applied = 0
        for key in sorted(self.in_ack):
            ring = self.in_ack[key]
            while True:
                record = ring.try_pop()
                if record is None:
                    break
                _, ack = unpack_record(record, self.keys_by_id)
                runtime.tx[key].apply(ack)
                if ack.floor > self.ack_floor[key]:
                    self.ack_floor[key] = ack.floor
                applied += len(ack.cycles)
        for key in sorted(self.in_ship):
            ring = self.in_ship[key]
            while True:
                record = ring.try_pop()
                if record is None:
                    break
                _, ship = unpack_record(record, self.keys_by_id)
                runtime.rx[key].apply(ship)
                if ship.horizon > self.horizon[key]:
                    self.horizon[key] = ship.horizon
                applied += len(ship.items)
        return applied

    # -- bound --------------------------------------------------------
    def compute_bound(self, cap: int | None) -> int:
        """This shard's conservative bound from the mirrored floors.

        Incoming horizons bound it forward. In reverse (backpressure)
        an unknown remote take can matter no earlier than the published
        take floor's wake, ``ack_floor + 1``.
        """
        bound = FOREVER if cap is None else cap
        for horizon in self.horizon.values():
            if horizon < bound:
                bound = horizon
        for floor in self.ack_floor.values():
            if floor + 1 < bound:
                bound = floor + 1
        return bound

    # -- outbound -----------------------------------------------------
    def publish(self, runtime: "_ShardRuntime", bound: int) -> int:
        """Collect and push this epoch's batches; returns items pushed.

        Items are counted when they reach a ring (not when collected):
        a backlogged record's items stay "in flight" until the peer can
        actually see them, which keeps the coordinator's
        progress/deadlock accounting exact.
        """
        pushed = self.flush_backlog()
        memo: dict = {}
        for key in sorted(runtime.tx):
            ship = runtime.tx[key].collect(runtime.engine, bound, memo)
            if not ship.items:
                if self._last_pub.get(("ship", key)) == ship.horizon:
                    continue
            self._last_pub[("ship", key)] = ship.horizon
            records = pack_ship_records(self.key_ids[key], ship,
                                        self.max_record)
            pushed += self._push(self.out_ship[key], records)
        for key in sorted(runtime.rx):
            ack = runtime.rx[key].collect(runtime.engine, bound, memo)
            if not ack.cycles:
                if self._last_pub.get(("ack", key)) == ack.floor:
                    continue
            self._last_pub[("ack", key)] = ack.floor
            records = pack_ack_records(self.key_ids[key], ack,
                                       self.max_record)
            pushed += self._push(self.out_ack[key], records)
        return pushed

    def _push(self, ring, records) -> int:
        backlog = self._backlog.get(ring)
        if backlog:  # keep per-ring FIFO order behind older records
            backlog.extend(records)
            return 0
        pushed = 0
        it = iter(records)
        for record, items in it:
            if ring.try_push(record):
                pushed += items
            else:
                backlog = self._backlog.setdefault(ring, deque())
                backlog.append((record, items))
                backlog.extend(it)
                break
        return pushed

    def flush_backlog(self) -> int:
        """Retry backlogged records in order; returns items pushed."""
        pushed = 0
        for ring, backlog in self._backlog.items():
            while backlog:
                record, items = backlog[0]
                if not ring.try_push(record):
                    break
                backlog.popleft()
                pushed += items
        return pushed


class _ShardRuntime:
    """One shard's engine, transport plane, proxies and app kernels."""

    def __init__(self, index: int, ranks: tuple[int, ...],
                 program: SMIProgram, plan, routes) -> None:
        self.index = index
        self.ranks = ranks
        local = frozenset(ranks)
        self.engine = Engine()
        # Clamp occupancy-log folds from the very first event: a shard
        # may run ahead of the (not yet known) global end cycle, and the
        # end-of-run stats must stay reconstructible exactly there.
        self.engine.stats_fold_limit = 0
        # Shard-indexed flight recorder (None with tracing off). Every
        # instrumented site reaches it through ``engine.trace``; the
        # process backend forks *after* this, so each worker inherits
        # its own recorder and ships the segment back in FinalReport.
        self.engine.trace = recorder_from_config(program.config,
                                                 shard=index)
        self.transport = build_transport(
            self.engine, plan, routes, program.config, shard_ranks=local,
            kernel_ranks=program.kernel_ranks(),
        )
        self.stores, self.procs = program.spawn_kernels(
            self.engine, self.transport, local)
        # Boundary proxies, keyed by the directed link's (src rank, iface).
        self.tx: dict[tuple[int, int], BoundaryTx] = {}
        self.rx: dict[tuple[int, int], BoundaryRx] = {}
        for link, src_local in self.transport.boundaries:
            key = link.src
            if src_local:
                self.tx[key] = BoundaryTx(key, link)
            else:
                dst_rank, dst_iface = link.dst
                consumer = self.transport.rank(dst_rank).ckr[dst_iface]
                self.rx[key] = BoundaryRx(key, link, consumer.proc)
        self.phase = new_phase()
        # Ring wiring, attached by run_sharded (before any fork) once
        # every shard's boundaries are known.
        self.links: _ShardLinks | None = None

    # ------------------------------------------------------------------
    def epoch_stream(self, cap: int | None, watermark: int,
                     fixed: int | None = None) -> EpochReport:
        """Self-paced exchange loop over the boundary rings.

        Each iteration drains the rings (floors ride inside the
        records, so everything drained is sound to use immediately),
        recomputes this shard's conservative bound from the freshest
        mirrors, runs the engine to it, and publishes what the epoch
        committed. The loop ends when an iteration makes no progress —
        nothing applied, nothing executed, bound not advanced — or
        after :data:`INNER_ROUNDS` iterations, so the coordinator's
        global termination/deadlock barrier runs regularly. With a
        ``fixed`` bound (the drain phase) it is exactly one iteration
        to that bound.
        """
        engine = self.engine
        if watermark > engine.stats_fold_limit:
            engine.stats_fold_limit = watermark
        links = self.links
        phase = self.phase
        trace = engine.trace
        total_executed = shipped = delivered = 0
        reason = "bound"
        bound = 0
        prev_bound = -1
        for _ in range(INNER_ROUNDS if fixed is None else 1):
            t0 = perf_counter()
            applied = links.drain(self)
            bound = links.compute_bound(cap) if fixed is None else fixed
            t1 = perf_counter()
            reason, executed = engine.run_until(bound)
            t2 = perf_counter()
            stalled = not applied and not executed and bound <= prev_bound
            # A stalled iteration has no new batch and no moved floor
            # to publish; only a backlogged record may still fit.
            pushed = (links.flush_backlog() if stalled
                      else links.publish(self, bound))
            t3 = perf_counter()
            phase["serialize_s"] += (t1 - t0) + (t3 - t2)
            phase["compute_s"] += t2 - t1
            phase["inner_rounds"] += 1
            if trace is not None:
                trace.wall_span("serialize", t0, t1)
                trace.wall_span("compute", t1, t2)
                trace.wall_span("serialize", t2, t3)
                if fixed is None and bound > prev_bound:
                    # One bound-update event per inner round that moved
                    # the conservative bound (not per drained record).
                    trace.emit(engine.cycle, "epoch", "shard", "bound",
                               args={"bound": bound})
            delivered += applied
            total_executed += executed
            shipped += pushed
            if stalled:
                break
            prev_bound = bound
        phase["outer_rounds"] += 1
        return EpochReport(
            reason=reason,
            executed=total_executed,
            live_workers=engine.live_workers,
            last_worker_finish=engine.last_worker_finish,
            worker_floor=engine.live_worker_floor({}),
            shipped=shipped,
            delivered=delivered,
            bound_reached=bound,
        )

    def epoch_drain(self, end: int, watermark: int) -> EpochReport:
        """One exchange iteration at the fixed bound ``end + 1``."""
        trace = self.engine.trace
        if trace is not None:
            trace.emit(self.engine.cycle, "drain", "shard", "drain",
                       args={"end": end})
        return self.epoch_stream(None, watermark, fixed=end + 1)

    def dump_blocked(self) -> list[str]:
        lines = self.engine.blocked_process_dump()
        trace = self.engine.trace
        if trace is not None and len(trace):
            # Same post-mortem the sequential engine's DeadlockError
            # carries: the flight recorder's tail, per shard.
            lines.append(f"shard {self.index} last trace events:")
            lines.extend(trace.tail_lines())
        return lines

    def finish(self, end: int) -> FinalReport:
        """Final stats snapshot, swept to the global end cycle.

        The receiving half of every boundary FIFO is skipped: after the
        drain phase both halves carry identical logs, and keeping only
        the transmitting half makes the merged per-FIFO stats a plain
        dict union that exactly matches a sequential run.
        """
        skip = {rx.link.name for rx in self.rx.values()}
        fifo_stats = {f.name: f.stats_row(end) for f in self.engine.fifos
                      if f.name not in skip}
        returns = {
            (name, rank): proc.result for name, rank, proc in self.procs
        }
        timing = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in self.phase.items()
        }
        trace = self.engine.trace
        return FinalReport(
            stores=dict(self.stores),
            returns=returns,
            fifo_stats=fifo_stats,
            planner=collect_planner_stats(self.transport),
            timing=timing,
            trace=trace.segment() if trace is not None else None,
        )


# ----------------------------------------------------------------------
# Shard handles: where a shard actually runs
# ----------------------------------------------------------------------
class LocalHandle:
    """In-process shard: a round runs synchronously when it is begun."""

    def __init__(self, runtime: _ShardRuntime) -> None:
        self.runtime = runtime
        self._report: EpochReport | None = None

    def begin_stream(self, cap, watermark=0) -> None:
        self._report = self.runtime.epoch_stream(cap, watermark)

    def begin_drain(self, end, watermark=0) -> None:
        self._report = self.runtime.epoch_drain(end, watermark)

    def finish_epoch(self) -> EpochReport:
        report, self._report = self._report, None
        return report

    def dump_blocked(self) -> list[str]:
        return self.runtime.dump_blocked()

    def finish(self, end: int) -> FinalReport:
        return self.runtime.finish(end)

    def close(self) -> None:
        pass

    def __enter__(self) -> "LocalHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _worker_main(conn, runtime: _ShardRuntime) -> None:
    """Forked worker loop: serve shard commands over the control pipe.

    Commands: ``("stream", cap, watermark)`` / ``("drain", end,
    watermark)`` — self-paced rounds over the boundary rings (batches
    never touch the pipe); ``("dump",)`` for deadlock
    diagnostics and ``("finish", end)`` for the final report.
    """
    phase = runtime.phase
    trace = runtime.engine.trace
    try:
        while True:
            t0 = perf_counter()
            msg = conn.recv()
            t1 = perf_counter()
            phase["ipc_wait_s"] += t1 - t0
            if trace is not None:
                trace.wall_span("ipc_wait", t0, t1)
            cmd = msg[0]
            try:
                if cmd == "stream":
                    payload = runtime.epoch_stream(msg[1], msg[2])
                elif cmd == "drain":
                    payload = runtime.epoch_drain(msg[1], msg[2])
                elif cmd == "dump":
                    payload = runtime.dump_blocked()
                elif cmd == "finish":
                    payload = runtime.finish(msg[1])
                else:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unknown shard command {cmd!r}")
            except Exception as exc:  # ship the failure to the coordinator
                try:
                    conn.send(("error", exc))
                except Exception:
                    conn.send(("error", RuntimeError(
                        f"shard {runtime.index}: {type(exc).__name__}: {exc}"
                    )))
                return
            conn.send(("ok", payload))
            if cmd == "finish":
                return
    except EOFError:  # pragma: no cover - coordinator went away
        return


class ProcessHandle:
    """Forked-worker shard, commanded over a control pipe.

    A context manager: ``close`` terminates and joins the worker, and
    ``run_sharded`` enters every handle on an ``ExitStack`` the moment
    it is constructed — a failure while the remaining shards are still
    being forked (or any mid-run coordinator exception) tears down
    every worker already started instead of leaking it.
    """

    def __init__(self, runtime: _ShardRuntime, ctx) -> None:
        self.index = runtime.index
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main, args=(child, runtime), daemon=True,
            name=f"smi-shard-{runtime.index}",
        )
        self._proc.start()
        child.close()

    def _pipe(self, op, *args):
        """Every coordinator-side pipe operation: a dead worker is one
        typed error naming the shard and how the worker ended."""
        try:
            return op(*args)
        except (EOFError, BrokenPipeError, ConnectionResetError):
            self._proc.join(timeout=1)
            code = self._proc.exitcode
            if code is None:
                how = "closed its control pipe"
            elif code < 0:
                how = f"was killed by {signal.Signals(-code).name}"
            else:
                how = f"exited with code {code}"
            raise ShardWorkerError(
                f"shard worker {self.index} {how} without reporting",
                shard=self.index, exitcode=code,
            ) from None

    def _send(self, *msg) -> None:
        self._pipe(self._conn.send, msg)

    def _recv(self):
        status, payload = self._pipe(self._conn.recv)
        if status == "error":
            raise payload
        return payload

    def begin_stream(self, cap, watermark=0) -> None:
        self._send("stream", cap, watermark)

    def begin_drain(self, end, watermark=0) -> None:
        self._send("drain", end, watermark)

    def finish_epoch(self) -> EpochReport:
        return self._recv()

    def dump_blocked(self) -> list[str]:
        self._send("dump")
        return self._recv()

    def finish(self, end: int) -> FinalReport:
        self._send("finish", end)
        return self._recv()

    def close(self) -> None:
        if self._proc.is_alive():
            self._proc.terminate()
        self._proc.join(timeout=5)
        self._conn.close()

    def __enter__(self) -> "ProcessHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Result facades
# ----------------------------------------------------------------------
class ShardedEngineView:
    """Duck-typed stand-in for ``ProgramResult.engine`` (merged stats)."""

    def __init__(self, fifo_stats: dict, cycle: int) -> None:
        self._fifo_stats = fifo_stats
        self.cycle = cycle

    def fifo_stats(self) -> dict:
        return self._fifo_stats


class ShardedTransportView:
    """Duck-typed stand-in for ``ProgramResult.transport``.

    ``ranks`` holds the shards' real :class:`RankTransport` objects for
    the in-process backend (workers' objects are unreachable from the
    process backend, so there it stays empty);
    ``planner_stats_snapshot`` carries the cluster-wide aggregate either
    way, honoured by
    :func:`repro.simulation.stats.collect_planner_stats`;
    ``shard_timing`` is the per-shard wall-clock phase breakdown
    (one ``FinalReport.timing`` dict per shard, in shard order).
    ``trace_segments`` holds each shard's flight-recorder segment and
    ``trace`` the coordinator-merged single timeline
    (:func:`repro.trace.merge_segments`) — both ``None``/empty with
    tracing off.
    """

    def __init__(self, config, routes, ranks: dict,
                 planner: PlannerStats,
                 shard_timing: list | None = None,
                 trace_segments: list | None = None) -> None:
        self.config = config
        self.routes = routes
        self.ranks = ranks
        self.planner_stats_snapshot = planner
        self.shard_timing = shard_timing or []
        self.trace_segments = trace_segments or []
        self.trace = (merge_segments(self.trace_segments)
                      if self.trace_segments else None)

    def rank(self, rank: int):
        if not self.ranks and self.config.backend == "process":
            raise SimulationError(
                f"rank {rank}: process-backend rank transports stay inside "
                "the workers; backend='sharded' keeps them inspectable")
        return self.ranks[rank]


# ----------------------------------------------------------------------
# Entry point (SMIProgram.run dispatches here for non-sequential backends)
# ----------------------------------------------------------------------
def resolve_partition(program: SMIProgram) -> Partition:
    """The program's explicit partition, or the automatic min-cut one."""
    explicit = getattr(program, "partition", None)
    topology = program.topology
    if explicit is None:
        return partition_topology(topology, program.config.shards)
    if isinstance(explicit, Partition):
        return explicit
    return partition_topology(topology, len(explicit), rank_lists=explicit)


def run_sharded(program: SMIProgram,
                max_cycles: int | None = None) -> ProgramResult:
    """Partition, build per-shard planes, synchronise, merge results."""
    config: HardwareConfig = program.config
    partition = resolve_partition(program)
    validate_cut(partition, program.topology, config)
    shard_of = partition.shard_of()
    use_processes = (config.backend == "process"
                     and partition.num_shards > 1)
    if use_processes:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "backend='process' needs the fork start method (the shard "
                "runtimes are built in the coordinator and inherited); "
                "use backend='sharded' on this platform"
            )
        ctx = multiprocessing.get_context("fork")
    routes = compute_routes(program.topology, program.routing_scheme)
    plan = program.build_plan()
    runtimes = [
        _ShardRuntime(i, ranks, program, plan, routes)
        for i, ranks in enumerate(partition.shards)
    ]
    channels = []
    for i, rt in enumerate(runtimes):
        for link, src_local in rt.transport.boundaries:
            if not src_local:
                continue
            channels.append(BoundaryChannel(
                key=link.src, src_shard=i,
                dst_shard=shard_of[link.dst[0]],
                latency=link.latency,
            ))
    with contextlib.ExitStack() as stack:
        try:
            fabric = ShmFabric((ch.key for ch in channels),
                               shared=use_processes)
        except (ImportError, OSError) as exc:
            # Only the shared block asks the OS for anything.
            raise ConfigurationError(
                "backend='process' needs multiprocessing shared memory "
                f"for its boundary rings, unavailable here ({exc}); "
                "use backend='sharded' on this platform"
            ) from exc
        stack.callback(fabric.close)
        handles: list = []
        for i, rt in enumerate(runtimes):
            rt.links = _ShardLinks(i, channels, fabric)
            handle = ProcessHandle(rt, ctx) if use_processes \
                else LocalHandle(rt)
            handles.append(stack.enter_context(handle))
        outcome = EpochSynchronizer(handles).run(max_cycles)
        finals = [handle.finish(outcome.cycles) for handle in handles]
    stores: dict = {}
    returns: dict = {}
    fifo_stats: dict = {}
    planner = PlannerStats()
    shard_timing: list = []
    trace_segments: list = []
    for final in finals:
        stores.update(final.stores)
        returns.update(final.returns)
        fifo_stats.update(final.fifo_stats)
        planner = planner.merge(final.planner)
        shard_timing.append(final.timing)
        if final.trace is not None:
            trace_segments.append(final.trace)
    merged_ranks: dict = {}
    if not use_processes:
        for rt in runtimes:
            merged_ranks.update(rt.transport.ranks)
    return ProgramResult(
        cycles=outcome.cycles,
        elapsed_us=config.cycles_to_us(outcome.cycles),
        reason=outcome.reason,
        stores=stores,
        returns=returns,
        engine=ShardedEngineView(fifo_stats, outcome.cycles),
        transport=ShardedTransportView(config, routes, merged_ranks,
                                       planner, shard_timing,
                                       trace_segments),
        routes=routes,
    )
