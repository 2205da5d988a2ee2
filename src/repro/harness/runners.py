"""Measurement runners shared by the benchmark suite and the CLI.

Each runner regenerates one experiment on the cycle simulator and returns
rows ready for a paper-vs-measured report; the host-baseline curves come
from :mod:`repro.hostexec`. Fig. 9 is simulated at every size. Only the
collective sweeps (Figs. 10-11) price their points above a size threshold
with :mod:`repro.perfmodel` (points are labelled ``sim`` / ``model``).

Every runner takes the platform model as an explicit ``config``
(default :data:`~repro.core.config.NOCTUA`) — the ``smi-bench`` CLI
builds one :class:`~repro.core.config.HardwareConfig` from its flags and
hands it down — and the simulating ones a ``trace_out`` path forwarded
to :meth:`SMIProgram.run`. Runner kernels communicate their measurements
through ``smi.store`` (not closures), so every runner works unchanged
under the process-sharded backend, where kernels execute in worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen.metadata import OpDecl
from ..core.config import NOCTUA, HardwareConfig
from ..core.datatypes import SMI_FLOAT, SMI_INT, SMIDatatype
from ..core.program import SMIProgram
from ..hostexec import NOCTUA_HOST, HostPathModel
from ..network.topology import Topology, noctua_bus, noctua_torus, torus2d
from ..perfmodel import bcast_cycles, reduce_cycles


# ----------------------------------------------------------------------
# Fig. 9 — bandwidth
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    size: int          # message size (bytes for fig9, elements for 10/11)
    value: float
    source: str        # "sim" | "model" | "host-model"


def measure_stream_sim(
    n_elements: int,
    hops: int,
    dtype: SMIDatatype = SMI_FLOAT,
    config: HardwareConfig = NOCTUA,
    topology: Topology | None = None,
    app_width: int = 8,
    trace_out: str | None = None,
) -> int:
    """Cycle-simulate one stream; returns elapsed cycles at the receiver.

    ``trace_out`` is forwarded to :meth:`SMIProgram.run` (as in every
    runner below).
    """
    topology = topology or noctua_bus()
    prog = SMIProgram(topology, config=config)

    def snd(smi):
        ch = smi.open_send_channel(n_elements, dtype, hops, 0)
        data = np.zeros(n_elements, dtype=dtype.np_dtype)
        yield from ch.push_vec(data, width=app_width)

    def rcv(smi):
        ch = smi.open_recv_channel(n_elements, dtype, 0, 0)
        yield from ch.pop_vec(n_elements, width=app_width)
        smi.store("end", smi.cycle)

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, dtype, peer=hops)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, dtype, peer=0)])
    res = prog.run(max_cycles=500_000_000, trace_out=trace_out)
    assert res.completed, res.reason
    return res.store(hops, "end")


def bandwidth_sweep(
    sizes_bytes: list[int],
    hops: int,
    config: HardwareConfig = NOCTUA,
    dtype: SMIDatatype = SMI_FLOAT,
    trace_out: str | None = None,
) -> list[SweepPoint]:
    """SMI payload bandwidth (Gbit/s) per message size (Fig. 9 series)."""
    points = []
    for size in sizes_bytes:
        n = max(1, size // dtype.size)
        cycles = measure_stream_sim(n, hops, dtype, config,
                                    trace_out=trace_out)
        secs = config.cycles_to_seconds(cycles)
        bw = n * dtype.size * 8 / secs / 1e9
        points.append(SweepPoint(size, bw, "sim"))
    return points


def host_bandwidth_sweep(
    sizes_bytes: list[int], host: HostPathModel = NOCTUA_HOST
) -> list[SweepPoint]:
    return [
        SweepPoint(size, host.p2p_bandwidth_gbps(size), "host-model")
        for size in sizes_bytes
    ]


# ----------------------------------------------------------------------
# Table 3 — latency
# ----------------------------------------------------------------------
def measure_pingpong_us(
    hops: int,
    config: HardwareConfig = NOCTUA,
    topology: Topology | None = None,
    trace_out: str | None = None,
) -> float:
    """Half round-trip of a 1-element message over ``hops`` hops (§5.3.2)."""
    topology = topology or noctua_bus()
    prog = SMIProgram(topology, config=config)

    def origin(smi):
        s = smi.open_send_channel(1, SMI_INT, hops, 0)
        r = smi.open_recv_channel(1, SMI_INT, hops, 1)
        start = smi.cycle
        yield from smi.push(s, 1)
        yield from smi.pop(r)
        smi.store("rtt", smi.cycle - start)

    def reflector(smi):
        r = smi.open_recv_channel(1, SMI_INT, 0, 0)
        s = smi.open_send_channel(1, SMI_INT, 0, 1)
        v = yield from smi.pop(r)
        yield from smi.push(s, v)

    prog.add_kernel(origin, rank=0,
                    ops=[OpDecl("send", 0, SMI_INT, peer=hops),
                         OpDecl("recv", 1, SMI_INT, peer=hops)])
    prog.add_kernel(reflector, rank=hops,
                    ops=[OpDecl("recv", 0, SMI_INT, peer=0),
                         OpDecl("send", 1, SMI_INT, peer=0)])
    res = prog.run(max_cycles=5_000_000, trace_out=trace_out)
    assert res.completed, res.reason
    return config.cycles_to_us(res.store(0, "rtt")) / 2


# ----------------------------------------------------------------------
# Table 4 — injection rate
# ----------------------------------------------------------------------
def measure_injection_cycles(read_burst: int, packets: int = 400,
                             config: HardwareConfig = NOCTUA,
                             trace_out: str | None = None) -> float:
    """Average cycles per packet injected from one endpoint (§5.3.3).

    4 CKS/CKR pairs are instantiated (torus wiring); one application
    endpoint streams continuously; the CKS therefore polls 5 inputs.
    The simulated 1-element stream on the same wiring is the path latency
    of the first packet; the ``packets - 1`` gaps after it are the rest.
    """
    cfg = config.with_(read_burst=read_burst)
    n = packets * SMI_FLOAT.elements_per_packet
    startup = measure_stream_sim(1, 1, SMI_FLOAT, cfg,
                                 topology=noctua_torus())
    cycles = measure_stream_sim(n, 1, SMI_FLOAT, cfg, topology=noctua_torus(),
                                trace_out=trace_out)
    return (cycles - startup) / (packets - 1)


# ----------------------------------------------------------------------
# Figs. 10-11 — collective sweeps
# ----------------------------------------------------------------------
def measure_bcast_sim_us(
    n: int, topology: Topology, num_ranks: int,
    config: HardwareConfig = NOCTUA,
    trace_out: str | None = None,
) -> float:
    prog = SMIProgram(topology, config=config)
    comm_members = list(range(num_ranks))

    def kernel(smi):
        comm = (smi.comm_world.sub(comm_members)
                if num_ranks < topology.num_ranks else smi.comm_world)
        if not comm.contains(smi.rank):
            return
            yield  # pragma: no cover
        chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0, comm)
        for i in range(n):
            yield from chan.bcast(float(i) if smi.rank == 0 else None)
        smi.store("end", smi.cycle)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("bcast", 0, SMI_FLOAT)])
    res = prog.run(max_cycles=500_000_000, trace_out=trace_out)
    assert res.completed, res.reason
    ends = [res.store(r, "end") for r in comm_members]
    return config.cycles_to_us(max(ends))


def measure_reduce_sim_us(
    n: int, topology: Topology, num_ranks: int,
    config: HardwareConfig = NOCTUA,
    trace_out: str | None = None,
) -> float:
    prog = SMIProgram(topology, config=config)
    comm_members = list(range(num_ranks))

    def kernel(smi):
        from ..core.ops import SMI_ADD

        comm = (smi.comm_world.sub(comm_members)
                if num_ranks < topology.num_ranks else smi.comm_world)
        if not comm.contains(smi.rank):
            return
            yield  # pragma: no cover
        chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 0, 0, comm)
        for i in range(n):
            yield from chan.reduce(float(smi.rank + i))
        smi.store("end", smi.cycle)

    from ..core.ops import SMI_ADD

    prog.add_kernel(kernel, ranks="all",
                    ops=[OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)])
    res = prog.run(max_cycles=500_000_000, trace_out=trace_out)
    assert res.completed, res.reason
    ends = [res.store(r, "end") for r in comm_members]
    return config.cycles_to_us(max(ends))


def _chain_hops(topology: Topology, num_ranks: int) -> float:
    """Mean hop distance between consecutive chain ranks.

    The linear collectives relay along rank order, so the distance that
    sets their rendezvous/fill/stall terms is between chain neighbours,
    not from the root (see :mod:`repro.perfmodel.collectives`).
    """
    hops = topology.hop_matrix()
    return float(np.mean([hops[r][r + 1] for r in range(num_ranks - 1)]))


def collective_sweep(
    kind: str,
    sizes_elements: list[int],
    topology: Topology,
    num_ranks: int,
    config: HardwareConfig = NOCTUA,
    sim_limit_elements: int = 1 << 13,
    trace_out: str | None = None,
) -> list[SweepPoint]:
    """SMI collective time (us) per message size, sim + model points."""
    chain_hops = _chain_hops(topology, num_ranks)
    points = []
    for n in sizes_elements:
        if n <= sim_limit_elements:
            if kind == "bcast":
                us = measure_bcast_sim_us(n, topology, num_ranks, config,
                                          trace_out=trace_out)
            elif kind == "reduce":
                us = measure_reduce_sim_us(n, topology, num_ranks, config,
                                           trace_out=trace_out)
            else:
                raise ValueError(f"unknown collective sweep kind {kind!r}")
            points.append(SweepPoint(n, us, "sim"))
        else:
            if kind == "bcast":
                cyc = bcast_cycles(n, SMI_FLOAT, num_ranks, chain_hops,
                                   config)
            else:
                cyc = reduce_cycles(n, SMI_FLOAT, num_ranks, chain_hops,
                                    config)
            points.append(SweepPoint(n, config.cycles_to_us(cyc), "model"))
    return points


def host_collective_sweep(
    kind: str,
    sizes_elements: list[int],
    num_ranks: int,
    host: HostPathModel = NOCTUA_HOST,
) -> list[SweepPoint]:
    fn = host.bcast_time_s if kind == "bcast" else host.reduce_time_s
    return [
        SweepPoint(n, fn(n, SMI_FLOAT, num_ranks) * 1e6, "host-model")
        for n in sizes_elements
    ]
