"""Checked predictions: the analytical perfmodel pinned to the simulator.

``perfmodel/collectives.py`` prices the Fig. 10-11 points above the
collective sweeps' simulation threshold, built on the per-hop and
endpoint terms of ``perfmodel/streams.py``, so neither may drift from
the simulator it extends. This suite makes them *checked* predictions:

* **exact** on the paper's microbenchmarks — link-paced p2p streams at
  any size/hop-count/app-width, and the single-element bus-chain
  bcast/reduce latencies (the collective analogue of the Table 3
  latency microbenchmark);
* within a **documented bound** elsewhere — +-2 cycles for p2p sizes
  whose last packet lands off the poll alignment, +-4 cycles on the
  Fig. 10 bcast grid, 8% relative on the Fig. 11 reduce grid (credit
  tile boundaries interact with the combine pipeline).
"""

import pytest

from repro.core.config import NOCTUA
from repro.core.datatypes import SMI_FLOAT
from repro.harness.runners import (
    measure_bcast_sim_us,
    measure_reduce_sim_us,
    measure_stream_sim,
)
from repro.network.topology import noctua_bus
from repro.perfmodel import bcast_cycles, p2p_stream, reduce_cycles


def _sim_collective_cycles(measure, n, num_ranks):
    us = measure(n, noctua_bus(), num_ranks, NOCTUA)
    return round(us / NOCTUA.cycles_to_us(1))


# ---------------------------------------------------------------------
# p2p streams: exact on link-paced streams
# ---------------------------------------------------------------------
@pytest.mark.parametrize("width", [1, 8])
@pytest.mark.parametrize("hops", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 7, 14, 70, 1022])
def test_p2p_model_exact(n, hops, width):
    sim = measure_stream_sim(n, hops, SMI_FLOAT, NOCTUA, app_width=width)
    model = p2p_stream(n, SMI_FLOAT, hops, NOCTUA, app_width=width).cycles
    assert model == sim, (n, hops, width, sim, model)


@pytest.mark.parametrize("config", [
    NOCTUA.with_(endpoint_latency_cycles=20),
    NOCTUA.with_(link_latency_cycles=100),
    NOCTUA.with_(link_cycles_per_packet=4),
    NOCTUA.with_(read_burst=4),
], ids=["ep20", "lat100", "lcp4", "rb4"])
def test_p2p_model_exact_across_configs(config):
    """The formula tracks the config knobs, not just the NOCTUA numbers."""
    for n, hops, width in ((1, 1, 8), (14, 1, 8), (70, 2, 8), (1022, 1, 1)):
        sim = measure_stream_sim(n, hops, SMI_FLOAT, config, app_width=width)
        model = p2p_stream(n, SMI_FLOAT, hops, config,
                           app_width=width).cycles
        assert model == sim, (n, hops, width, sim, model)


@pytest.mark.parametrize("n", [8, 15, 63, 256, 1023])
def test_p2p_model_poll_alignment_bound(n):
    """Sizes whose last packet lands off the CKS poll alignment drift by
    at most 2 cycles (the model cannot see the R-burst phase)."""
    sim = measure_stream_sim(n, 1, SMI_FLOAT, NOCTUA)
    model = p2p_stream(n, SMI_FLOAT, 1, NOCTUA, app_width=8).cycles
    assert abs(model - sim) <= 2, (n, sim, model)


# ---------------------------------------------------------------------
# Collectives: exact single-element chain latency, bounded on the grid
# ---------------------------------------------------------------------
@pytest.mark.parametrize("num_ranks", [2, 3, 4, 5])
def test_bcast_model_exact_single_element(num_ranks):
    sim = _sim_collective_cycles(measure_bcast_sim_us, 1, num_ranks)
    model = bcast_cycles(1, SMI_FLOAT, num_ranks, 1.0, NOCTUA)
    assert model == sim, (num_ranks, sim, model)


@pytest.mark.parametrize("num_ranks", [2, 3, 4, 5])
def test_reduce_model_exact_single_element(num_ranks):
    sim = _sim_collective_cycles(measure_reduce_sim_us, 1, num_ranks)
    model = reduce_cycles(1, SMI_FLOAT, num_ranks, 1.0, NOCTUA)
    assert model == sim, (num_ranks, sim, model)


@pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
def test_bcast_model_bound_on_grid(n):
    sim = _sim_collective_cycles(measure_bcast_sim_us, n, 4)
    model = bcast_cycles(n, SMI_FLOAT, 4, 1.0, NOCTUA)
    assert abs(model - sim) <= 4, (n, sim, model)


@pytest.mark.parametrize("n,num_ranks", [
    (64, 2), (64, 4), (128, 3), (192, 4), (256, 4), (512, 4),
])
def test_reduce_model_bound_on_grid(n, num_ranks):
    sim = _sim_collective_cycles(measure_reduce_sim_us, n, num_ranks)
    model = reduce_cycles(n, SMI_FLOAT, num_ranks, 1.0, NOCTUA)
    assert model == pytest.approx(sim, rel=0.08), (n, num_ranks, sim, model)
