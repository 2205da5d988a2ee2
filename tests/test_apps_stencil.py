"""Tests for the SPMD stencil application (§5.4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NOCTUA, noctua_torus
from repro.apps.stencil import (
    FIG15_POINTS,
    StencilModel,
    jacobi_reference,
    run_distributed_sim,
)
from repro.core.errors import ConfigurationError, DeadlockError
from repro.network.topology import torus2d


def _grid(nx, ny, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(nx, ny)).astype(np.float32)


@pytest.mark.parametrize("rank_grid,topology", [
    ((2, 2), torus2d(2, 2)),
    ((2, 4), torus2d(2, 4)),
    ((1, 2), torus2d(2, 2)),
])
def test_distributed_matches_reference(rank_grid, topology):
    grid = _grid(24, 32, seed=1)
    out, _us = run_distributed_sim(grid, 4, rank_grid, topology=topology)
    ref = jacobi_reference(grid, 4)
    np.testing.assert_allclose(out.astype(np.float64), ref, atol=1e-5)


def test_single_timestep():
    grid = _grid(16, 16, seed=2)
    out, _us = run_distributed_sim(grid, 1, (2, 2), topology=torus2d(2, 2))
    np.testing.assert_allclose(out.astype(np.float64),
                               jacobi_reference(grid, 1), atol=1e-6)


def test_uneven_block_sizes():
    # 21 x 19 over a 2x2 rank grid: blocks of 11/10 x 10/9 rows/cols.
    grid = _grid(21, 19, seed=3)
    out, _us = run_distributed_sim(grid, 3, (2, 2), topology=torus2d(2, 2))
    np.testing.assert_allclose(out.astype(np.float64),
                               jacobi_reference(grid, 3), atol=1e-5)


@settings(deadline=None, max_examples=6)
@given(
    nx=st.integers(min_value=8, max_value=28),
    ny=st.integers(min_value=8, max_value=28),
    steps=st.integers(min_value=1, max_value=5),
    seed=st.integers(0, 500),
)
def test_property_any_grid_matches_reference(nx, ny, steps, seed):
    """Property: the SMI halo-exchange stencil equals sequential Jacobi for
    arbitrary grid shapes, timestep counts and data."""
    grid = _grid(nx, ny, seed=seed)
    out, _us = run_distributed_sim(grid, steps, (2, 2), topology=torus2d(2, 2))
    ref = jacobi_reference(grid, steps)
    np.testing.assert_allclose(out.astype(np.float64), ref, atol=1e-4)


@pytest.mark.xfail(strict=True, raises=DeadlockError,
                   reason="ROADMAP item 2 'The stencil at paper scale': "
                          "head-of-line blocking the parity order invites — "
                          "(2, 4) at 640^2 hangs at cycle 943 with the halo "
                          "on link.2:1->3:3 behind a full shared recv_ep4, "
                          "(4, 2) at 448^2 at cycle 1 811, both planes")
@pytest.mark.parametrize("burst_mode", [True, False],
                         ids=["default", "flit"])
@pytest.mark.parametrize("rank_grid,n", [((2, 4), 640), ((4, 2), 448)])
def test_noctua_torus_one_timestep_hang(rank_grid, n, burst_mode):
    """The smallest measured hangs of the parity-ordered halo exchange,
    on the specification plane as on the default: a waited-for halo
    sits on a link behind a CKR parked on a full endpoint (or inter-CKR
    FIFO) that a later-read port's halo filled."""
    grid = _grid(n, n)
    out, _us = run_distributed_sim(
        grid, 1, rank_grid, topology=noctua_torus(),
        config=NOCTUA.with_(burst_mode=burst_mode))
    np.testing.assert_allclose(out.astype(np.float64),
                               jacobi_reference(grid, 1), atol=1e-5)


def test_more_ranks_than_rows_rejected():
    with pytest.raises(ConfigurationError):
        run_distributed_sim(_grid(2, 16), 1, (4, 1), topology=torus2d(2, 2))


def test_too_small_topology_rejected():
    with pytest.raises(ConfigurationError, match="topology"):
        run_distributed_sim(_grid(16, 16), 1, (2, 4), topology=torus2d(2, 2))


# ----------------------------------------------------------------------
# Flow model (Figs. 15-16)
# ----------------------------------------------------------------------
def test_model_fig15_all_points():
    model = StencilModel()
    expected = {
        "1 bank/1 FPGA": 254.0,
        "4 banks/1 FPGA": 72.0,
        "1 bank/4 FPGAs": 72.0,
        "4 banks/4 FPGAs": 20.0,
        "4 banks/8 FPGAs": 11.0,
    }
    for p in FIG15_POINTS:
        t_ms = model.time_s(4096, 4096, 32, p.banks, p.num_fpgas, p.rank_grid) * 1e3
        assert t_ms == pytest.approx(expected[p.label], rel=0.1), p.label


def test_model_speedup_product_structure():
    # §5.4.2: banks-speedup x fpga-speedup composes multiplicatively.
    model = StencilModel()
    base = model.time_s(4096, 4096, 32, 1, 1, (1, 1))
    s_banks = base / model.time_s(4096, 4096, 32, 4, 1, (1, 1))
    s_fpgas = base / model.time_s(4096, 4096, 32, 1, 4, (2, 2))
    s_both = base / model.time_s(4096, 4096, 32, 4, 4, (2, 2))
    assert s_both == pytest.approx(s_banks * s_fpgas, rel=0.1)


def test_model_rank_grid_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        StencilModel().time_s(4096, 4096, 32, 4, 8, (2, 2))


def test_model_halo_elements():
    model = StencilModel()
    # Interior rank of a 2x2 grid: two row edges + two column edges.
    assert model.halo_elements(100, 200, (2, 2)) == 2 * 200 + 2 * 100
    # 1-D decomposition: only one direction pair exchanges.
    assert model.halo_elements(100, 200, (1, 4)) == 2 * 100
    assert model.halo_elements(100, 200, (4, 1)) == 2 * 200


def test_model_weak_scaling_monotone():
    model = StencilModel()
    values = [
        model.ns_per_point(s, s, 32, 4, 8, (2, 4))
        for s in (1024, 2048, 4096, 8192)
    ]
    assert values == sorted(values, reverse=True)


def test_model_overlap_inequality_matches_paper_form():
    # LHS grows quadratically, RHS linearly: large grids always overlap.
    model = StencilModel()
    assert model.communication_overlapped(16384, 16384, 4, (2, 4))
    assert not model.communication_overlapped(48, 48, 4, (2, 4))


def test_jacobi_reference_fixed_point():
    # A constant grid is a fixed point of the Jacobi update.
    grid = np.full((12, 12), 3.5, dtype=np.float32)
    np.testing.assert_allclose(jacobi_reference(grid, 10), grid)
