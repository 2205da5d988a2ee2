"""SPMD distributed-memory stencil with SMI halo exchange (§5.4.2).

A 4-point (5-point star, hx = hy = 1) Jacobi stencil over an Nx x Ny
domain, decomposed in two dimensions over an RX x RY rank grid (Fig. 14).
Each timestep, every rank exchanges its halo rows/columns with its
north/west/east/south neighbours over transient SMI channels — "channels
are opened to adjacent ranks using a distinct port for each neighbor"
(Listing 3) — then updates its block.

Port convention (matching Listing 3, where port p is shared by the send
and the matching receive of one direction):

    port 1: west halo   (received from the west neighbour's eastward send)
    port 2: east halo
    port 3: north halo
    port 4: south halo

Because all ranks run the same bitstream and compute neighbour ranks at
runtime, unused borders simply leave their channels unopened.

Two fidelities again: the functional cycle simulation below (verified
against a NumPy reference), and :class:`StencilModel`, the calibrated flow
model that regenerates Figs. 15-16 at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..codegen.metadata import OpDecl
from ..core.config import (
    NOCTUA,
    NOCTUA_KERNEL_CLOCKS,
    NOCTUA_MEMORY,
    HardwareConfig,
    KernelClockModel,
    MemoryConfig,
)
from ..core.datatypes import SMI_FLOAT
from ..core.errors import ConfigurationError
from ..core.program import SMIProgram
from ..network.topology import Topology, torus2d

PORT_WEST, PORT_EAST, PORT_NORTH, PORT_SOUTH = 1, 2, 3, 4

#: All stencil ports (send+recv endpoint on each, Listing-3 style).
STENCIL_OPS = [
    OpDecl("send", PORT_WEST, SMI_FLOAT),
    OpDecl("recv", PORT_WEST, SMI_FLOAT),
    OpDecl("send", PORT_EAST, SMI_FLOAT),
    OpDecl("recv", PORT_EAST, SMI_FLOAT),
    OpDecl("send", PORT_NORTH, SMI_FLOAT),
    OpDecl("recv", PORT_NORTH, SMI_FLOAT),
    OpDecl("send", PORT_SOUTH, SMI_FLOAT),
    OpDecl("recv", PORT_SOUTH, SMI_FLOAT),
]


def jacobi_reference(grid: np.ndarray, timesteps: int) -> np.ndarray:
    """NumPy reference: 4-point Jacobi with fixed (Dirichlet) borders."""
    g = grid.astype(np.float64, copy=True)
    for _ in range(timesteps):
        nxt = g.copy()
        nxt[1:-1, 1:-1] = 0.25 * (
            g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]
        )
        g = nxt
    return g


def _block_bounds(n: int, parts: int, index: int) -> tuple[int, int]:
    """Split ``n`` rows into ``parts`` contiguous blocks; bounds of one."""
    base = n // parts
    rem = n % parts
    lo = index * base + min(index, rem)
    hi = lo + base + (1 if index < rem else 0)
    return lo, hi


def run_distributed_sim(
    grid: np.ndarray,
    timesteps: int,
    rank_grid: tuple[int, int],
    topology: Topology | None = None,
    config: HardwareConfig = NOCTUA,
    max_cycles: int = 500_000_000,
):
    """Cycle-level SPMD stencil run; returns (final grid, elapsed_us).

    Halo exchange per timestep uses checkerboard ordering (ranks with even
    block parity send first, odd receive first), meant to satisfy §3.3's
    rule that programs must not rely on channel buffering. It is *not*
    deadlock-free everywhere: on ``noctua_torus()`` with ``NOCTUA``
    depths, one timestep hangs at cycle 943 for rank grid (2, 4) at
    640² and at cycle 1 811 for (4, 2) at 448², on the per-flit plane as
    on the default. No halo is lost: it is head-of-line blocking that
    the parity order invites. At (2, 4) rank 3's west halo (23 packets)
    sits on ``link.2:1->3:3``, behind ``ckr3``, which is parked on a
    full shared ``recv_ep4`` (22 of 22) holding rank 7's south halo —
    and rank 3 reads port 4 only after port 1 (ROADMAP item 2, "The
    stencil at paper scale: the hang is head-of-line blocking the app
    invites"; ``tests/test_apps_stencil.py`` holds the strict-xfail
    reproducers).
    """
    rx, ry = rank_grid
    num_ranks = rx * ry
    topology = topology or torus2d(max(rx, 2) if ry == 1 else rx, ry if ry > 1 else 2)
    if topology.num_ranks < num_ranks:
        raise ConfigurationError(
            f"topology has {topology.num_ranks} ranks; stencil needs {num_ranks}"
        )
    nx, ny = grid.shape
    if rx > nx or ry > ny:
        raise ConfigurationError("more ranks than grid rows/columns")
    prog = SMIProgram(topology, config=config)
    blocks_out: dict[int, np.ndarray] = {}
    end_cycles: dict[int, int] = {}

    def kernel(smi):
        rank = smi.rank
        if rank >= num_ranks:
            return
            yield  # pragma: no cover
        r_x, r_y = rank // ry, rank % ry
        x_lo, x_hi = _block_bounds(nx, rx, r_x)
        y_lo, y_hi = _block_bounds(ny, ry, r_y)
        block = grid[x_lo:x_hi, y_lo:y_hi].astype(np.float32, copy=True)
        bx, by = block.shape
        north = rank - ry if r_x > 0 else None
        south = rank + ry if r_x < rx - 1 else None
        west = rank - 1 if r_y > 0 else None
        east = rank + 1 if r_y < ry - 1 else None
        parity = (r_x + r_y) % 2

        for _t in range(timesteps):
            halo = {"n": None, "s": None, "w": None, "e": None}
            # Outgoing edges / incoming halo channels. Port p's send at
            # this rank matches port p's receive at the neighbour:
            # our eastward send is the east neighbour's *west* halo.
            sends = []
            if west is not None:
                sends.append(("w", west, PORT_EAST, block[:, 0]))
            if east is not None:
                sends.append(("e", east, PORT_WEST, block[:, -1]))
            if north is not None:
                sends.append(("n", north, PORT_SOUTH, block[0, :]))
            if south is not None:
                sends.append(("s", south, PORT_NORTH, block[-1, :]))
            recvs = []
            if west is not None:
                recvs.append(("w", west, PORT_WEST, bx))
            if east is not None:
                recvs.append(("e", east, PORT_EAST, bx))
            if north is not None:
                recvs.append(("n", north, PORT_NORTH, by))
            if south is not None:
                recvs.append(("s", south, PORT_SOUTH, by))

            def do_sends():
                for _dir, nbr, port, edge in sends:
                    ch = smi.open_send_channel(len(edge), SMI_FLOAT, nbr, port)
                    yield from ch.push_vec(np.ascontiguousarray(edge))

            def do_recvs():
                for d, nbr, port, count in recvs:
                    ch = smi.open_recv_channel(count, SMI_FLOAT, nbr, port)
                    halo[d] = (yield from ch.pop_vec(count))

            if parity == 0:
                yield from do_sends()
                yield from do_recvs()
            else:
                yield from do_recvs()
                yield from do_sends()

            # Compute the Jacobi update on the extended block; the paper's
            # kernel streams this from DRAM at `width` elements/cycle — the
            # numerical result is identical, so we compute with NumPy and
            # account the cycles via the flow model (see StencilModel).
            ext = np.full((bx + 2, by + 2), np.nan, dtype=np.float32)
            ext[1:-1, 1:-1] = block
            ext[0, 1:-1] = halo["n"] if halo["n"] is not None else block[0, :]
            ext[-1, 1:-1] = halo["s"] if halo["s"] is not None else block[-1, :]
            ext[1:-1, 0] = halo["w"] if halo["w"] is not None else block[:, 0]
            ext[1:-1, -1] = halo["e"] if halo["e"] is not None else block[:, -1]
            interior = 0.25 * (
                ext[:-2, 1:-1] + ext[2:, 1:-1] + ext[1:-1, :-2] + ext[1:-1, 2:]
            )
            nxt = block.copy()
            nxt[1:-1, 1:-1] = interior[1:-1, 1:-1]
            # Global-border rows/cols stay fixed (Dirichlet), but block
            # borders adjacent to other ranks are updated using halos.
            if north is not None:
                nxt[0, 1:-1] = interior[0, 1:-1]
            if south is not None:
                nxt[-1, 1:-1] = interior[-1, 1:-1]
            if west is not None:
                nxt[1:-1, 0] = interior[1:-1, 0]
            if east is not None:
                nxt[1:-1, -1] = interior[1:-1, -1]
            # Interior corners of interior blocks: the 4-point stencil
            # needs N/S/W/E values only, all available from edges/halos.
            if north is not None and west is not None:
                nxt[0, 0] = interior[0, 0]
            if north is not None and east is not None:
                nxt[0, -1] = interior[0, -1]
            if south is not None and west is not None:
                nxt[-1, 0] = interior[-1, 0]
            if south is not None and east is not None:
                nxt[-1, -1] = interior[-1, -1]
            block = nxt

        blocks_out[rank] = block
        end_cycles[rank] = smi.cycle

    prog.add_kernel(kernel, ranks="all", ops=STENCIL_OPS)
    res = prog.run(max_cycles=max_cycles)
    assert res.completed, res.reason

    out = np.empty_like(grid, dtype=np.float32)
    for rank in range(num_ranks):
        r_x, r_y = rank // ry, rank % ry
        x_lo, x_hi = _block_bounds(nx, rx, r_x)
        y_lo, y_hi = _block_bounds(ny, ry, r_y)
        out[x_lo:x_hi, y_lo:y_hi] = blocks_out[rank]
    return out, config.cycles_to_us(max(end_cycles.values()))


# ----------------------------------------------------------------------
# Flow model (Figs. 15-16 regeneration at paper scale)
# ----------------------------------------------------------------------
#: Kernel fmax once the SMI transport shares the fabric (or the datapath is
#: 64 elements wide): calibrated to Fig. 15's 72 ms points (§ see DESIGN).
SMI_ATTACHED_FMAX_HZ = 116.5e6


@dataclass(frozen=True)
class StencilConfigPoint:
    """One bar of Fig. 15: a (banks, FPGAs, rank-grid) configuration."""

    banks: int
    num_fpgas: int
    rank_grid: tuple[int, int]
    label: str


@dataclass(frozen=True)
class StencilModel:
    """Calibrated timing model of the stencil (Figs. 15-16).

    Per rank and timestep the pipelined kernel streams its
    ``points / width`` grid points (width = banks x 16 elements/cycle) and
    additionally pops/pushes its halo elements at one element per cycle
    (Listing 3's halo pops share the pipelined loop). Kernel fmax is
    132 MHz for the plain single-bank single-FPGA build and 116.5 MHz for
    wide or SMI-attached builds (both calibrated to Fig. 15; the wide
    datapath and the added transport logic lower achievable fmax).
    """

    memory: MemoryConfig = NOCTUA_MEMORY
    clocks: KernelClockModel = NOCTUA_KERNEL_CLOCKS

    def fmax_hz(self, banks: int, num_fpgas: int) -> float:
        width = banks * self.memory.bank_width_elements
        base = self.clocks.fmax(width)
        if num_fpgas > 1:
            return min(base, SMI_ATTACHED_FMAX_HZ)
        return base

    def halo_elements(self, local_nx: int, local_ny: int,
                      rank_grid: tuple[int, int]) -> int:
        """Halo elements sent+received per rank per timestep (hx=hy=1).

        Interior ranks exchange two rows and two columns in each
        direction pair; we model the worst (interior) rank, which is the
        one on the critical path.
        """
        rx, ry = rank_grid
        edges = 0
        if rx > 1:
            edges += 2 * local_ny  # north + south
        if ry > 1:
            edges += 2 * local_nx  # west + east
        return edges

    def time_s(self, nx: int, ny: int, timesteps: int, banks: int,
               num_fpgas: int, rank_grid: tuple[int, int]) -> float:
        rx, ry = rank_grid
        if rx * ry != num_fpgas:
            raise ConfigurationError(
                f"rank grid {rank_grid} does not match {num_fpgas} FPGAs"
            )
        width = banks * self.memory.bank_width_elements
        local_nx = ceil(nx / rx)
        local_ny = ceil(ny / ry)
        compute_cycles = local_nx * local_ny / width
        halo_cycles = self.halo_elements(local_nx, local_ny, rank_grid)
        per_step = compute_cycles + halo_cycles
        return timesteps * per_step / self.fmax_hz(banks, num_fpgas)

    def ns_per_point(self, nx: int, ny: int, timesteps: int, banks: int,
                     num_fpgas: int, rank_grid: tuple[int, int]) -> float:
        """Fig. 16 metric: execution time divided by grid points."""
        t = self.time_s(nx, ny, timesteps, banks, num_fpgas, rank_grid)
        return t / (nx * ny) * 1e9

    def communication_overlapped(self, nx: int, ny: int, banks: int,
                                 rank_grid: tuple[int, int],
                                 config: HardwareConfig = NOCTUA) -> bool:
        """The §5.4.2 overlap inequality.

        (Nx - 2hx)(Ny - 2hy)/Bmem >= 4 (Nx hy + Ny hx)/Bcomm with hx=hy=1,
        evaluated per rank block.
        """
        rx, ry = rank_grid
        bnx, bny = ceil(nx / rx), ceil(ny / ry)
        bmem = (banks * self.memory.bank_width_elements * 4) * self.fmax_hz(
            banks, rx * ry
        )  # bytes/s
        bcomm = config.link_payload_bandwidth_bps / 8  # bytes/s
        lhs = (bnx - 2) * (bny - 2) * 4 / bmem
        rhs = 4 * (bnx + bny) * 4 / bcomm
        return lhs >= rhs


#: The five Fig. 15 configurations.
FIG15_POINTS = [
    StencilConfigPoint(1, 1, (1, 1), "1 bank/1 FPGA"),
    StencilConfigPoint(4, 1, (1, 1), "4 banks/1 FPGA"),
    StencilConfigPoint(1, 4, (2, 2), "1 bank/4 FPGAs"),
    StencilConfigPoint(4, 4, (2, 2), "4 banks/4 FPGAs"),
    StencilConfigPoint(4, 8, (2, 4), "4 banks/8 FPGAs"),
]
