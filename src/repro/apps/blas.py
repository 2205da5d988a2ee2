"""Streaming BLAS building blocks (GEMV, AXPY) — the FBLAS analog.

§5.4.1 builds GESUMMV out of "an open-source synthesizable library" of
streaming BLAS routines [18]. These are their simulator equivalents: each
routine is a hardware kernel that reads operands from the board's DRAM
banks at modelled bandwidth, computes in a pipelined fashion (compute fully
overlaps the streaming reads — the routines are memory-bound), and streams
results elementwise into a FIFO, exactly the composition style of Fig. 12.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..core.errors import ConfigurationError
from ..simulation.conditions import TICK
from ..simulation.fifo import Fifo
from ..simulation.memory import MemoryPort


def gemv_kernel(
    ports: list[MemoryPort],
    A: np.ndarray,
    x: np.ndarray,
    out: Fifo,
    scale: float = 1.0,
) -> Generator:
    """Streaming y = scale * A @ x, one result element per matrix row.

    ``A`` is row-major in off-chip memory, striped across ``ports`` (one
    per DRAM bank); ``x`` is assumed cached on-chip (read once, reused for
    every row — the standard FBLAS GEMV tiling). The dot product is fully
    pipelined behind the memory reads, so each row costs its read time.

    The kernel registers as a reader of every port's bank when called
    (before any kernel runs). A row whose banks are all distinct and all
    read by this kernel alone is booked in one call
    (:meth:`MemoryBank.book`) and its read cycles then counted down one
    ``TICK`` each: the same cycles, dispatches and ``total_granted`` as
    the per-cycle grant loop, which runs whenever another kernel shares
    a bank.
    """
    n_rows, n_cols = A.shape
    if len(x) != n_cols:
        raise ConfigurationError(
            f"GEMV shape mismatch: A is {A.shape}, x has {len(x)}"
        )
    if not ports:
        raise ConfigurationError("GEMV needs at least one memory port")
    rows = _gemv_rows(ports, A, x, out, scale)
    for port in ports:
        port.bank.readers.add(rows)
    return rows


def _gemv_rows(ports, A, x, out, scale) -> Generator:
    n_rows, n_cols = A.shape
    n_ports = len(ports)
    chunk = -(-n_cols // n_ports)  # columns handled per bank, ceil
    stripes = [max(0, min(n_cols, (p + 1) * chunk) - p * chunk)
               for p in range(n_ports)]
    banks = [port.bank for port in ports]
    distinct = len(set(map(id, banks))) == n_ports
    for i in range(n_rows):
        # All banks stream their column stripe *concurrently*: each cycle
        # the kernel pulls up to bank-width elements from every stripe, so
        # the row read time is ceil(stripe / bank_width) cycles — the
        # aggregate bandwidth of all attached banks.
        if distinct and all(bank.sole_reader() for bank in banks):
            cycles = max(bank.book(stripe)
                         for bank, stripe in zip(banks, stripes))
            for _ in range(cycles):
                yield TICK
        else:
            remaining = list(stripes)
            while any(remaining):
                for p, bank in enumerate(banks):
                    if remaining[p]:
                        remaining[p] -= bank.grant(remaining[p])
                yield TICK
        row = A[i]
        value = scale * float(row @ x)
        while not out.writable:
            yield out.can_push
        out.stage(value)
        yield TICK


def axpy_kernel(
    a_in: Fifo,
    b_in: Fifo,
    count: int,
    alpha: float,
    beta: float,
    result: list,
) -> Generator:
    """Streaming result = alpha * a + beta * b, one element per cycle.

    Inputs arrive on FIFOs (from local GEMVs or from an SMI channel pop
    loop); results accumulate into ``result`` (modelling the write stream
    back to DRAM, which is never the bottleneck here).
    """
    for _ in range(count):
        while not a_in.readable:
            yield a_in.can_pop
        va = a_in.take()
        while not b_in.readable:
            yield b_in.can_pop
        vb = b_in.take()
        result.append(alpha * float(va) + beta * float(vb))
        yield TICK


def gesummv_reference(
    alpha: float, beta: float, A: np.ndarray, B: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """NumPy reference: y = alpha*A@x + beta*B@x (Extended BLAS GESUMMV)."""
    return alpha * (A @ x) + beta * (B @ x)
