"""Hardware configuration for the simulated SMI platform.

The paper's experimental platform (§5.1) is the Noctua cluster: Nallatech 520N
boards with a Stratix 10 GX2800, four 40 Gbit/s QSFP network ports exposed to
HLS as 256-bit I/O channels, and hosts connected by 100 Gbit/s Omni-Path.

All timing calibration constants for the cycle-level simulator live here, in
one :class:`HardwareConfig` dataclass, so every benchmark states exactly which
platform model it ran on. The defaults model Noctua:

* **Clocks.** The BSP's 256-bit I/O channel moves one 32-byte packet per
  *link slot*; at the QSFP line rate of 40 Gbit/s that is one packet every
  6.4 ns. HLS transport kernels close timing well above that: we model the
  kernel clock at 312.5 MHz with ``link_cycles_per_packet = 2``, so a link
  still carries exactly 40 Gbit/s raw (35 Gbit/s payload — "35Gbit/s when
  taking the 4 B header of each network packet into account", §5.3.1),
  while a CKS has ~2 cycles of headroom per packet. This headroom is what
  lets R-burst polling (R=8 spends 8 of every 12 cycles on one input)
  still saturate a single stream at >90% of link payload rate, consistent
  with Fig. 9 *and* Table 4 simultaneously.
* **Per-hop link latency**: calibrated against Table 3. SMI latency grows
  by ~0.72 us per hop ((5.103-0.801)/6 us between 1 and 7 hops), i.e. ~224
  kernel cycles; ``link_latency_cycles`` covers the wire/SerDes part and
  the CK traversal adds the rest. The remaining 1-hop cycles come from the
  endpoint stack (``endpoint_latency_cycles`` of HLS interface pipelining
  at each end, packing, endpoint FIFOs), which the simulator models
  explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigurationError

#: Transport kernel clock frequency (Hz).
DEFAULT_CLOCK_HZ = 312.5e6


@dataclass(frozen=True)
class HardwareConfig:
    """Parameters of the simulated multi-FPGA platform.

    Attributes
    ----------
    clock_hz:
        Transport/application kernel clock frequency.
    link_cycles_per_packet:
        Kernel cycles per 32-byte link slot; clock_hz * 32 B /
        link_cycles_per_packet is the raw QSFP rate (40 Gbit/s default).
    link_latency_cycles:
        Cycles a packet spends in flight on an inter-FPGA link
        (serialization + SerDes + board traces). Calibrated to Table 3.
    endpoint_latency_cycles:
        Pipeline latency of the HLS interface between an application
        endpoint and its CKS/CKR (part of the Table 3 calibration).
    num_interfaces:
        Number of QSFP network ports per FPGA (the 520N exposes 4), i.e.
        the number of CKS/CKR pairs instantiated by the transport.
    read_burst (R):
        The polling parameter of §4.3: a CKS/CKR keeps reading from the same
        input connection up to R packets while data is available, before
        polling the next connection.
    endpoint_fifo_depth:
        Depth, in packets, of the FIFO between an application endpoint and
        its CKS/CKR. This realises the channel "asynchronicity degree"
        k = depth * elements_per_packet of §3.3. Programs must not rely on
        it for correctness (deadlock freedom), only for performance.
    inter_ck_fifo_depth:
        Depth, in packets, of FIFOs between communication kernels
        (CKS<->CKS, CKR<->CKR, CKR<->CKS pairs).
    reduce_credits:
        C of §4.4: the number of *elements* of accumulation buffer at the
        Reduce root. The root releases new credits to all ranks each time a
        full tile of C elements has been combined and drained.
    burst_mode:
        Enable the simulator's burst data plane: contiguous runs of
        packets move through FIFOs, polling arbiters, CKS/CKR and links
        in a single engine event with analytically computed per-item
        cycles, instead of one generator step per packet per layer. It
        selects two things and nothing else: the CKs' supply planner —
        window planning and validated steady-state trains
        (:mod:`repro.transport.planner` driving ``planner_window`` and
        ``planner_train``), tiers of one plane, not
        separately selectable — and the point-to-point channels'
        ``push_vec`` / ``pop_vec`` vector lanes. Collective support
        kernels and collective channels have one interpretation, the
        paper's per-element one, on every plane. Cycle counts and per-FIFO push/pop
        statistics are identical with the flag on or off (enforced by
        ``tests/test_burst_equivalence.py`` and the fuzz suite); only
        wall-clock simulation speed changes. Default on; off selects the
        literal per-flit interpretation, which is the specification
        every other plane is checked against.
    macro_cruise:
        Analytical stream fast-forward (macro-cruise) on the burst
        plane: the app channels' burst endpoints register their
        sleeping vector bursts as lanes with the supply planner, and
        whenever a replication train stalls on an application endpoint
        whose channel is asleep inside a proven deterministic burst
        plan, the train extends that plan arithmetically in the same
        engine event — staging/taking with the exact per-flit cycles —
        instead of waiting for the channel's next wake. Once a stream's
        chain settles into a proven period the planner jumps the steady
        state in closed form, proving each chain on its own (nothing
        outside the chain is assumed quiet), and the engine clock
        crosses the span in one event per plane. Cycle-exact
        like the plane beneath it (the fuzz suite pins flit / burst /
        default / sharded equality); every fast-forward window also
        asserts its closed-form span against the pattern arithmetic.
        Read only by the burst plane: with ``burst_mode=False`` no
        planner is built and the flag is inert. Default on; ``False``
        keeps the burst plane without the fast-forward, the fuzz
        suite's middle plane.
    backend:
        Simulation execution backend (see :mod:`repro.shard`):
        ``"sequential"`` (default) runs the whole fabric on one engine;
        ``"sharded"`` partitions the fabric into ``shards`` pieces, each
        on its own engine, handing boundary batches to each other
        through one queue per cut link and direction and advancing to
        conservative bounds derived from SupplySchedule horizons
        (in-process and deterministic — the cycle-exactness reference
        for the parallel plane); ``"process"`` runs the same exchange
        protocol with one forked worker process per shard, the
        coordinator relaying each worker's pickled batches to the peer
        with its next command — actual multi-core parallelism. All
        backends are cycle-exact: on completed runs,
        identical ``RunResult.cycles``, per-rank stores, per-FIFO
        push/pop counts and occupancy peaks (``tests/test_shard.py``
        and the fuzz suite enforce it); only simulator wall-clock
        differs. One scoping note shared with the burst plane itself:
        a ``max_cycles``-truncated run pins ``cycles`` and ``reason``
        but not per-FIFO counters (counters tally *committed* events,
        and the planes commit different distances past an arbitrary
        cap — sequential burst vs per-flit differ there too).
    shards:
        Number of fabric partitions for the sharded backends. Must be 1
        for the sequential backend and ``1 <= shards <= num_ranks``
        otherwise (the partitioner validates against the topology). An
        explicit ``SMIProgram(partition=...)`` must have exactly this
        many shards.
    trace:
        Cycle-domain tracing (see :mod:`repro.trace`): when True every
        engine carries a flight recorder — a bounded ring buffer of
        structured events (dispatches, FIFO stage/take, park/wake,
        arbiter grants, link transfers, planner spans and macro-ff
        guard aborts, shard epochs) plus stride-sampled metrics — and
        runs export it as Perfetto/JSONL timelines (sharded backends
        ship per-worker segments to the coordinator for a single
        merged timeline). Off by default; the off path is one ``is
        not None`` check per instrumented site, and cycles stay
        bit-identical either way (the fuzz suite pins it). The repo
        benchmark reports the wall-clock cost of tracing *on* as
        ``host.trace_overhead``; what the off path costs against an
        uninstrumented build has not been measured.
    """

    clock_hz: float = DEFAULT_CLOCK_HZ
    link_cycles_per_packet: int = 2
    link_latency_cycles: int = 219
    endpoint_latency_cycles: int = 14
    num_interfaces: int = 4
    read_burst: int = 8
    endpoint_fifo_depth: int = 8
    inter_ck_fifo_depth: int = 8
    reduce_credits: int = 256
    burst_mode: bool = True
    macro_cruise: bool = True
    backend: str = "sequential"
    shards: int = 1
    trace: bool = False

    #: Valid values of :attr:`backend`.
    BACKENDS = ("sequential", "sharded", "process")

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigurationError(f"clock_hz must be positive: {self.clock_hz}")
        if self.link_cycles_per_packet < 1:
            raise ConfigurationError(
                f"link_cycles_per_packet must be >= 1: {self.link_cycles_per_packet}"
            )
        if self.link_latency_cycles < 0:
            raise ConfigurationError(
                f"link_latency_cycles must be >= 0: {self.link_latency_cycles}"
            )
        if self.endpoint_latency_cycles < 1:
            raise ConfigurationError(
                f"endpoint_latency_cycles must be >= 1: {self.endpoint_latency_cycles}"
            )
        if not 1 <= self.num_interfaces <= 8:
            raise ConfigurationError(
                f"num_interfaces must be in [1, 8]: {self.num_interfaces}"
            )
        if self.read_burst < 1:
            raise ConfigurationError(f"read_burst (R) must be >= 1: {self.read_burst}")
        for name in ("endpoint_fifo_depth", "inter_ck_fifo_depth", "reduce_credits"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.backend not in self.BACKENDS:
            known = ", ".join(self.BACKENDS)
            raise ConfigurationError(
                f"unknown backend {self.backend!r} (known: {known})"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1: {self.shards}")
        if self.backend == "sequential" and self.shards != 1:
            raise ConfigurationError(
                "shards > 1 requires backend='sharded' or 'process' "
                f"(got backend='sequential', shards={self.shards})"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def link_raw_bandwidth_bps(self) -> float:
        """Raw link bandwidth in bits/s (32 B per link slot)."""
        return 32 * 8 * self.clock_hz / self.link_cycles_per_packet

    @property
    def link_payload_bandwidth_bps(self) -> float:
        """Peak payload bandwidth in bits/s (28 of 32 B are payload)."""
        return 28 * 8 * self.clock_hz / self.link_cycles_per_packet

    def cycles_to_seconds(self, cycles: int | float) -> float:
        """Convert a cycle count to wall-clock seconds at this clock."""
        return cycles / self.clock_hz

    def cycles_to_us(self, cycles: int | float) -> float:
        """Convert a cycle count to microseconds at this clock."""
        return cycles / self.clock_hz * 1e6

    def seconds_to_cycles(self, seconds: float) -> int:
        """Convert wall-clock seconds to (rounded) cycles at this clock."""
        return round(seconds * self.clock_hz)

    def with_(self, **kwargs) -> "HardwareConfig":
        """Return a copy with some fields replaced (convenience)."""
        return replace(self, **kwargs)


#: The default platform model: Noctua's Nallatech 520N boards (§5.1).
NOCTUA = HardwareConfig()

#: Deep-buffer variant of the Noctua model: 32-deep inter-CK FIFOs and a
#: proportionally larger endpoint buffer (the §3.3 asynchronicity degree
#: grows with it). On a Stratix 10 this is still comfortably on-chip
#: (M20K blocks hold 64 x 256-bit words, so a 32-deep 256-bit FIFO is a
#: fraction of one block); the paper fixes the shallow depths for the
#: resource tables, but nothing in the transport requires them. Deeper
#: buffers grow the per-event information quantum, which is the regime
#: where replication trains exceed one round — see
#: ``docs/ARCHITECTURE.md`` ("Pattern replication").
NOCTUA_DEEP = HardwareConfig(endpoint_fifo_depth=32, inter_ck_fifo_depth=32)

#: Extra-deep variant (64-deep everywhere): one full M20K per FIFO.
NOCTUA_XDEEP = HardwareConfig(endpoint_fifo_depth=64, inter_ck_fifo_depth=64)

#: Named hardware presets, for harness/benchmark CLI wiring.
HW_PRESETS: dict[str, HardwareConfig] = {
    "noctua": NOCTUA,
    "noctua-deep": NOCTUA_DEEP,
    "noctua-xdeep": NOCTUA_XDEEP,
}


def hardware_preset(name: str) -> HardwareConfig:
    """Look up a named :class:`HardwareConfig` preset (see HW_PRESETS)."""
    try:
        return HW_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(HW_PRESETS))
        raise ConfigurationError(
            f"unknown hardware preset {name!r} (known: {known})"
        ) from None


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip DRAM model of one FPGA board (used by the applications).

    The 520N carries 4 banks of DDR4. The applications in §5.4 are
    memory-bound; their performance is set by how many banks a kernel reads
    from and at what effective rate.

    Attributes
    ----------
    num_banks:
        DDR banks per FPGA.
    bank_width_elements:
        Elements of 4 B deliverable per bank per kernel cycle (the stencil
        kernels read "16 elements per cycle from a single DDR bank", §5.4.2).
    gesummv_stream_bandwidth_Bps:
        Effective sequential-read bandwidth available to one GEMV kernel
        using the whole board (calibrated to Fig. 13: N=4096 distributed
        GESUMMV takes 2.8 ms for a 64 MiB matrix => ~24 GB/s).
    """

    num_banks: int = 4
    bank_width_elements: int = 16
    gesummv_stream_bandwidth_Bps: float = 24.0e9

    def __post_init__(self) -> None:
        if self.num_banks < 1:
            raise ConfigurationError("num_banks must be >= 1")
        if self.bank_width_elements < 1:
            raise ConfigurationError("bank_width_elements must be >= 1")
        if self.gesummv_stream_bandwidth_Bps <= 0:
            raise ConfigurationError("gesummv_stream_bandwidth_Bps must be > 0")


#: Default board memory model (Nallatech 520N, 4x DDR4 banks).
NOCTUA_MEMORY = MemoryConfig()


@dataclass(frozen=True)
class KernelClockModel:
    """Application-kernel fmax as a function of datapath width.

    Wider HLS datapaths close timing at lower frequencies. The paper's
    stencil kernels read 16 elements/cycle (1 bank) or 64 elements/cycle
    (4 banks); calibrating against Fig. 15 (254 ms and 72 ms for a 4096^2
    grid, 32 iterations) yields ~132 MHz and ~116.5 MHz respectively.
    """

    fmax_by_width_hz: dict[int, float] = field(
        default_factory=lambda: {16: 132.0e6, 64: 116.5e6}
    )
    default_fmax_hz: float = 156.25e6

    def fmax(self, width_elements: int) -> float:
        """Clock frequency for a kernel with the given datapath width."""
        if width_elements in self.fmax_by_width_hz:
            return self.fmax_by_width_hz[width_elements]
        # Interpolate in log-width space between known points; clamp outside.
        known = sorted(self.fmax_by_width_hz.items())
        if not known:
            return self.default_fmax_hz
        if width_elements <= known[0][0]:
            return known[0][1]
        if width_elements >= known[-1][0]:
            return known[-1][1]
        for (w0, f0), (w1, f1) in zip(known, known[1:]):
            if w0 <= width_elements <= w1:
                frac = (width_elements - w0) / (w1 - w0)
                return f0 + frac * (f1 - f0)
        return self.default_fmax_hz  # pragma: no cover - unreachable


#: Default application kernel clock model, calibrated to Fig. 15.
NOCTUA_KERNEL_CLOCKS = KernelClockModel()
