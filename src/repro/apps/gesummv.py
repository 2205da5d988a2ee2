"""GESUMMV: single-FPGA vs distributed implementations (§5.4.1, Figs. 12-13).

``y = alpha*A@x + beta*B@x`` with NxM matrices A and B.

* **Single FPGA** (Fig. 12 left): two GEMV kernels run concurrently on one
  board, *sharing* its memory bandwidth, streaming into a local AXPY.
* **Distributed MPMD** (Fig. 12 right): rank 0 computes alpha*A@x and
  streams the result elements over an SMI channel; rank 1 computes beta*B@x
  from its own memory and runs the AXPY, popping one input from the
  network. "The full application thus gains access to twice the memory
  bandwidth across the two FPGAs" — the expected ~2x speedup of Fig. 13.

Two fidelities:

* :func:`run_single_sim` / :func:`run_distributed_sim` — functional
  cycle-level simulations for small N, verified against NumPy.
* :class:`GesummvModel` — the bandwidth flow model used to regenerate
  Fig. 13 at paper scale (calibrated constant:
  ``MemoryConfig.gesummv_stream_bandwidth_Bps`` = 24 GB/s effective per
  board, which reproduces the paper's reported 0.7/2.8/10.8 ms almost
  exactly; ``benchmarks/bench_fig13_gesummv.py`` prints the comparison,
  see ``benchmarks/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen.metadata import OpDecl
from ..core.config import NOCTUA, NOCTUA_MEMORY, HardwareConfig, MemoryConfig
from ..core.datatypes import SMI_FLOAT
from ..core.program import SMIProgram
from ..network.topology import bus
from .blas import axpy_kernel, gemv_kernel, gesummv_reference

#: SMI port used by the distributed pipeline (rank0 GEMV -> rank1 AXPY).
GESUMMV_PORT = 0


# ----------------------------------------------------------------------
# Functional cycle-level implementations
# ----------------------------------------------------------------------
def run_single_sim(
    alpha: float,
    beta: float,
    A: np.ndarray,
    B: np.ndarray,
    x: np.ndarray,
    memory: MemoryConfig = NOCTUA_MEMORY,
    config: HardwareConfig = NOCTUA,
):
    """Single-FPGA GESUMMV on the cycle simulator.

    Returns (y, elapsed_us). Both GEMVs run on rank 0 and contend for the
    same DRAM banks (half the banks each, modelling the shared-bandwidth
    bottleneck of Fig. 12 left).
    """
    n = A.shape[0]
    prog = SMIProgram(bus(2), config=config, memory=memory)

    def kernel(smi):
        half = max(1, len(smi.memory.banks) // 2)
        ports_a = [smi.memory.port(i, f"gemvA{i}") for i in range(half)]
        ports_b = [smi.memory.port(i, f"gemvB{i}")
                   for i in range(half, len(smi.memory.banks))] or ports_a
        ya = smi.engine.fifo("ya", capacity=8)
        yb = smi.engine.fifo("yb", capacity=8)
        result: list = []
        smi.engine.spawn(gemv_kernel(ports_a, A, x, ya), "gemvA", daemon=True)
        smi.engine.spawn(gemv_kernel(ports_b, B, x, yb), "gemvB", daemon=True)
        yield from axpy_kernel(ya, yb, n, alpha, beta, result)
        smi.store("y", np.array(result))
        smi.store("cycles", smi.cycle)

    prog.add_kernel(kernel, rank=0, ops=[])
    res = prog.run(max_cycles=200_000_000)
    assert res.completed, res.reason
    return res.store(0, "y"), config.cycles_to_us(res.store(0, "cycles"))


def run_distributed_sim(
    alpha: float,
    beta: float,
    A: np.ndarray,
    B: np.ndarray,
    x: np.ndarray,
    memory: MemoryConfig = NOCTUA_MEMORY,
    config: HardwareConfig = NOCTUA,
):
    """Distributed MPMD GESUMMV (Fig. 12 right) on the cycle simulator.

    Rank 0 streams alpha*(A@x) over SMI port 0; rank 1 computes
    beta*(B@x) locally and combines. Returns (y, elapsed_us).
    """
    n = A.shape[0]
    prog = SMIProgram(bus(2), config=config, memory=memory)

    def rank0(smi):
        # The paper notes adapting GEMV took ~8 changed lines: push results
        # to an SMI channel instead of a local FIFO.
        ports = [smi.memory.port(i, f"gemvA{i}")
                 for i in range(len(smi.memory.banks))]
        ya = smi.engine.fifo("ya0", capacity=8)
        smi.engine.spawn(gemv_kernel(ports, A, x, ya, scale=alpha),
                         "gemvA", daemon=True)
        ch = smi.open_send_channel(n, SMI_FLOAT, 1, GESUMMV_PORT)
        for _ in range(n):
            while not ya.readable:
                yield ya.can_pop
            value = ya.take()
            yield from ch.push(value)

    def rank1(smi):
        ports = [smi.memory.port(i, f"gemvB{i}")
                 for i in range(len(smi.memory.banks))]
        yb = smi.engine.fifo("yb1", capacity=8)
        smi.engine.spawn(gemv_kernel(ports, B, x, yb, scale=beta),
                         "gemvB", daemon=True)
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, GESUMMV_PORT)
        result: list = []
        for _ in range(n):
            va = yield from smi.pop(ch)
            while not yb.readable:
                yield yb.can_pop
            vb = yb.take()
            result.append(float(va) + float(vb))
            yield None
        smi.store("y", np.array(result))
        smi.store("cycles", smi.cycle)

    prog.add_kernel(rank0, rank=0, ops=[OpDecl("send", GESUMMV_PORT, SMI_FLOAT)])
    prog.add_kernel(rank1, rank=1, ops=[OpDecl("recv", GESUMMV_PORT, SMI_FLOAT)])
    res = prog.run(max_cycles=200_000_000)
    assert res.completed, res.reason
    return res.store(1, "y"), config.cycles_to_us(res.store(1, "cycles"))


# ----------------------------------------------------------------------
# Flow model (Fig. 13 regeneration at paper scale)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GesummvModel:
    """Bandwidth model of GESUMMV (memory-bound, per §5.4.1)."""

    memory: MemoryConfig = NOCTUA_MEMORY
    config: HardwareConfig = NOCTUA
    element_bytes: int = 4

    def matrix_bytes(self, n: int, m: int) -> int:
        return n * m * self.element_bytes

    def distributed_time_s(self, n: int, m: int) -> float:
        """Each rank streams one NxM matrix at the full board bandwidth;
        the SMI stream and AXPY overlap completely with the reads."""
        stream = self.matrix_bytes(n, m) / self.memory.gesummv_stream_bandwidth_Bps
        # One network hop of pipeline fill; negligible but modelled.
        fill = (self.config.link_latency_cycles + 2 * self.config.endpoint_latency_cycles
                ) / self.config.clock_hz
        return stream + fill

    def single_time_s(self, n: int, m: int) -> float:
        """Both matrices share one board's bandwidth: twice the bytes."""
        return 2 * self.matrix_bytes(n, m) / self.memory.gesummv_stream_bandwidth_Bps

    def speedup(self, n: int, m: int) -> float:
        return self.single_time_s(n, m) / self.distributed_time_s(n, m)


def reference(alpha, beta, A, B, x) -> np.ndarray:
    """Re-export of the NumPy reference for convenience."""
    return gesummv_reference(alpha, beta, A, B, x)
