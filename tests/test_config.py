"""Unit tests for the hardware configuration model."""

import itertools
import multiprocessing

import numpy as np
import pytest

from repro import SMI_FLOAT, SMIProgram, bus
from repro.codegen.metadata import OpDecl
from repro.core.config import (
    HW_PRESETS,
    NOCTUA,
    NOCTUA_DEEP,
    NOCTUA_KERNEL_CLOCKS,
    NOCTUA_MEMORY,
    NOCTUA_XDEEP,
    HardwareConfig,
    KernelClockModel,
    MemoryConfig,
    hardware_preset,
)
from repro.core.errors import ConfigurationError


def test_default_clock_gives_qsfp_line_rate():
    # One 32 B packet per cycle at 156.25 MHz == 40 Gbit/s (§5.1).
    assert NOCTUA.link_raw_bandwidth_bps == pytest.approx(40e9)


def test_payload_peak_matches_paper():
    # "35Gbit/s when taking the 4 B header of each network [packet] into
    # account" (§5.3.1).
    assert NOCTUA.link_payload_bandwidth_bps == pytest.approx(35e9)


def test_cycle_time_roundtrip():
    cycles = 12345
    assert NOCTUA.seconds_to_cycles(NOCTUA.cycles_to_seconds(cycles)) == cycles


def test_cycles_to_us():
    assert NOCTUA.cycles_to_us(NOCTUA.clock_hz) == pytest.approx(1e6)


def test_with_replaces_fields():
    cfg = NOCTUA.with_(read_burst=16)
    assert cfg.read_burst == 16
    assert cfg.clock_hz == NOCTUA.clock_hz
    assert NOCTUA.read_burst == 8  # original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        {"clock_hz": 0},
        {"clock_hz": -1},
        {"link_latency_cycles": -1},
        {"num_interfaces": 0},
        {"num_interfaces": 9},
        {"read_burst": 0},
        {"endpoint_fifo_depth": 0},
        {"inter_ck_fifo_depth": 0},
        {"reduce_credits": 0},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        HardwareConfig(**kwargs)


def test_deep_buffer_presets():
    """The deep presets differ from NOCTUA only in buffer depths: the
    timing calibration (clocks, latencies, polling) is shared, so a run
    on a deep preset stays comparable with the same run at NOCTUA."""
    for preset, depth in ((NOCTUA_DEEP, 32), (NOCTUA_XDEEP, 64)):
        assert preset.inter_ck_fifo_depth == depth
        assert preset.endpoint_fifo_depth == depth
        assert preset.clock_hz == NOCTUA.clock_hz
        assert preset.link_latency_cycles == NOCTUA.link_latency_cycles
        assert preset.read_burst == NOCTUA.read_burst
        assert preset.burst_mode and preset.macro_cruise


def test_hardware_preset_lookup():
    assert hardware_preset("noctua") is NOCTUA
    assert hardware_preset("noctua-deep") is NOCTUA_DEEP
    assert hardware_preset("noctua-xdeep") is NOCTUA_XDEEP
    assert set(HW_PRESETS) == {"noctua", "noctua-deep", "noctua-xdeep"}
    with pytest.raises(ConfigurationError, match="unknown hardware preset"):
        hardware_preset("noctua-bottomless")


def test_memory_config_defaults():
    assert NOCTUA_MEMORY.num_banks == 4
    assert NOCTUA_MEMORY.bank_width_elements == 16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_banks": 0},
        {"bank_width_elements": 0},
        {"gesummv_stream_bandwidth_Bps": 0},
    ],
)
def test_invalid_memory_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        MemoryConfig(**kwargs)


def test_kernel_clock_known_widths():
    assert NOCTUA_KERNEL_CLOCKS.fmax(16) == pytest.approx(132.0e6)
    assert NOCTUA_KERNEL_CLOCKS.fmax(64) == pytest.approx(116.5e6)


def test_kernel_clock_interpolation_and_clamping():
    model = NOCTUA_KERNEL_CLOCKS
    # Between the calibration points: strictly between the endpoint values.
    mid = model.fmax(40)
    assert 116.5e6 < mid < 132.0e6
    # Outside: clamped.
    assert model.fmax(1) == pytest.approx(132.0e6)
    assert model.fmax(512) == pytest.approx(116.5e6)


def test_kernel_clock_empty_model_uses_default():
    model = KernelClockModel(fmax_by_width_hz={}, default_fmax_hz=100e6)
    assert model.fmax(16) == pytest.approx(100e6)


# ----------------------------------------------------------------------
# The run-configuration lattice: every selectable point is rejected by
# ``HardwareConfig`` or runs cycle-exact against the per-flit plane.
# ----------------------------------------------------------------------
LATTICE_N = 256


def _lattice_stream(config):
    """2-rank 1-hop stream of LATTICE_N floats under ``config``."""
    prog = SMIProgram(bus(2), config=config)
    data = np.arange(LATTICE_N, dtype=np.float32)

    def snd(smi):
        ch = smi.open_send_channel(LATTICE_N, SMI_FLOAT, 1, 0)
        yield from ch.push_vec(data)

    def rcv(smi):
        ch = smi.open_recv_channel(LATTICE_N, SMI_FLOAT, 0, 0)
        got = yield from ch.pop_vec(LATTICE_N)
        smi.store("sum", float(np.sum(got)))

    prog.add_kernel(snd, rank=0, ops=[OpDecl("send", 0, SMI_FLOAT, peer=1)])
    prog.add_kernel(rcv, rank=1, ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    res = prog.run(max_cycles=1_000_000)
    assert res.completed, res.reason
    counts = {name: (st["pushes"], st["pops"])
              for name, st in res.engine.fifo_stats().items()}
    return res.cycles, res.store(1, "sum"), counts


@pytest.fixture(scope="module")
def lattice_reference():
    return _lattice_stream(NOCTUA.with_(burst_mode=False))


@pytest.mark.parametrize(
    "burst_mode, macro_cruise, backend, shards, trace",
    itertools.product((False, True), (False, True),
                      HardwareConfig.BACKENDS, (1, 2), (False, True)),
)
def test_config_lattice_rejects_or_runs_cycle_exact(
        lattice_reference, burst_mode, macro_cruise, backend, shards, trace):
    point = dict(burst_mode=burst_mode, macro_cruise=macro_cruise,
                 backend=backend, shards=shards, trace=trace)
    # ``macro_cruise`` is read only by the burst plane, so it combines
    # with ``burst_mode=False`` (where it is inert) like any other flag.
    invalid = backend == "sequential" and shards > 1
    if invalid:
        with pytest.raises(ConfigurationError):
            NOCTUA.with_(**point)
        return
    config = NOCTUA.with_(**point)
    if backend == "process" and \
            "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("process backend needs the fork start method")
    assert _lattice_stream(config) == lattice_reference
