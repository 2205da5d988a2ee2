"""Validation of the analytical performance model against the simulator.

The simulator is the witness: the stream model is checked against it,
and the collective models, which price the Fig. 10-11 points above the
collective sweeps' simulation threshold, must agree with it where both
run.
"""

import numpy as np
import pytest

from repro import NOCTUA, SMI_FLOAT, SMIProgram, bus, noctua_torus
from repro.codegen.metadata import OpDecl
from repro.perfmodel import (
    bcast_cycles,
    p2p_stream,
    packet_gap_cycles,
    reduce_cycles,
)


# ---------------------------------------------------------------------
# Simulator measurement helpers
# ---------------------------------------------------------------------
def simulate_stream_cycles(n, hops, dtype=SMI_FLOAT, width=8):
    prog = SMIProgram(bus(8))
    marks = {}

    def snd(smi):
        ch = smi.open_send_channel(n, dtype, hops, 0)
        data = np.zeros(n, dtype=dtype.np_dtype)
        yield from ch.push_vec(data, width=width)

    def rcv(smi):
        ch = smi.open_recv_channel(n, dtype, 0, 0)
        yield from ch.pop_vec(n, width=width)
        marks["end"] = smi.cycle

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, dtype)])
    prog.add_kernel(rcv, rank=hops, ops=[OpDecl("recv", 0, dtype)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    return marks["end"]


def simulate_bcast_cycles(n, num_ranks, topology):
    prog = SMIProgram(topology)
    marks = {}

    def kernel(smi):
        chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0)
        for i in range(n):
            yield from chan.bcast(float(i) if smi.rank == 0 else None)
        marks[smi.rank] = smi.cycle

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("bcast", 0, SMI_FLOAT)])
    res = prog.run(max_cycles=50_000_000)
    assert res.completed, res.reason
    return max(marks.values())


# ---------------------------------------------------------------------
# Point-to-point agreement
# ---------------------------------------------------------------------
@pytest.mark.parametrize("n,hops", [(64, 1), (1024, 1), (4096, 1),
                                    (1024, 4), (1024, 7), (8192, 3)])
def test_stream_model_matches_simulator(n, hops):
    sim = simulate_stream_cycles(n, hops)
    model = p2p_stream(n, SMI_FLOAT, hops, NOCTUA, app_width=8).cycles
    assert model == pytest.approx(sim, rel=0.10), (sim, model)


def test_packet_gap_bottlenecks():
    # Vectorised app: the link slot (2 cycles/packet) is the bottleneck.
    assert packet_gap_cycles(NOCTUA, SMI_FLOAT, app_width=8) == 2.0
    # Narrow app: element packing dominates (7 cycles per 7-element packet).
    assert packet_gap_cycles(NOCTUA, SMI_FLOAT, app_width=1) == 7.0
    # R=1 polling starves the CKS: (1+4)/1 = 5 cycles per packet.
    assert packet_gap_cycles(NOCTUA.with_(read_burst=1), SMI_FLOAT, 8) == 5.0


# ---------------------------------------------------------------------
# Collective agreement
# ---------------------------------------------------------------------
@pytest.mark.parametrize("n,ranks", [(128, 4), (512, 4), (512, 8)])
def test_bcast_model_matches_simulator(n, ranks):
    from repro.network.topology import torus2d

    topology = torus2d(2, 2) if ranks == 4 else noctua_torus()
    sim = simulate_bcast_cycles(n, ranks, topology)
    hop_mat = topology.hop_matrix()
    chain = np.mean([hop_mat[r][r + 1] for r in range(ranks - 1)])
    model = bcast_cycles(n, SMI_FLOAT, ranks, chain, NOCTUA)
    if ranks == 8:
        # On the larger torus, consecutive relays ride distinct physical
        # links and their READY/data round trips partially overlap; the
        # serialized-relay model is a conservative upper bound there
        # (it is exact on bus chains — see test_perfmodel_checked.py).
        assert sim <= model <= 1.35 * sim, (sim, model)
    else:
        assert model == pytest.approx(sim, rel=0.25), (sim, model)


def test_reduce_model_shape():
    # Root-bound linear reduction: roughly linear in count and in ranks.
    t1 = reduce_cycles(10_000, SMI_FLOAT, 4, 2, NOCTUA)
    t2 = reduce_cycles(20_000, SMI_FLOAT, 4, 2, NOCTUA)
    assert t2 == pytest.approx(2 * t1, rel=0.15)
    # Rank scaling of the root's combine work: isolate it from credit
    # stalls by making the tile as large as the message, and compare
    # communicators large enough to be root-bound (small ones are paced
    # by the combining kernel's per-packet turnaround instead).
    big_credit = NOCTUA.with_(reduce_credits=10_000)
    t8 = reduce_cycles(10_000, SMI_FLOAT, 8, 2, big_credit)
    t16 = reduce_cycles(10_000, SMI_FLOAT, 16, 2, big_credit)
    assert t16 > 1.8 * t8


def test_reduce_model_latency_sensitivity():
    # §5.3.4: completion time increases with network diameter (credit RTT).
    small_net = reduce_cycles(100_000, SMI_FLOAT, 8, 2, NOCTUA)
    big_net = reduce_cycles(100_000, SMI_FLOAT, 8, 7, NOCTUA)
    assert big_net > small_net


def test_reduce_model_credit_tile_effect():
    # More credits => fewer stalls => faster.
    few = reduce_cycles(100_000, SMI_FLOAT, 8, 3, NOCTUA.with_(reduce_credits=64))
    many = reduce_cycles(100_000, SMI_FLOAT, 8, 3, NOCTUA.with_(reduce_credits=1024))
    assert many < few

