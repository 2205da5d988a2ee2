"""Tests for the GESUMMV application (§5.4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.blas import gesummv_reference
from repro.apps.gesummv import GesummvModel, run_distributed_sim, run_single_sim
from repro.core.config import MemoryConfig
from repro.simulation import memory


def _random_problem(n, seed=0, m=None):
    rng = np.random.default_rng(seed)
    m = m or n
    A = rng.normal(size=(n, m)).astype(np.float32)
    B = rng.normal(size=(n, m)).astype(np.float32)
    x = rng.normal(size=m).astype(np.float32)
    return A, B, x


def test_single_fpga_matches_numpy():
    A, B, x = _random_problem(48, seed=1)
    y, _us = run_single_sim(2.0, -1.0, A, B, x)
    np.testing.assert_allclose(y, gesummv_reference(2.0, -1.0, A, B, x),
                               rtol=1e-4)


def test_distributed_matches_numpy():
    A, B, x = _random_problem(48, seed=2)
    y, _us = run_distributed_sim(0.5, 3.0, A, B, x)
    np.testing.assert_allclose(y, gesummv_reference(0.5, 3.0, A, B, x),
                               rtol=1e-4)


def test_rectangular_matrices():
    A, B, x = _random_problem(24, seed=3, m=56)
    y, _us = run_distributed_sim(1.0, 1.0, A, B, x)
    np.testing.assert_allclose(y, gesummv_reference(1.0, 1.0, A, B, x),
                               rtol=1e-4)


@settings(deadline=None, max_examples=8)
@given(
    n=st.integers(min_value=2, max_value=40),
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 1000),
)
def test_property_distributed_equals_reference(n, alpha, beta, seed):
    A, B, x = _random_problem(n, seed=seed)
    y, _us = run_distributed_sim(alpha, beta, A, B, x)
    ref = gesummv_reference(alpha, beta, A, B, x)
    np.testing.assert_allclose(y, ref, rtol=1e-3, atol=1e-4)


def test_single_and_distributed_agree():
    A, B, x = _random_problem(32, seed=4)
    y1, _ = run_single_sim(1.0, 2.0, A, B, x)
    y2, _ = run_distributed_sim(1.0, 2.0, A, B, x)
    np.testing.assert_allclose(y1, y2, rtol=1e-5)


def test_distributed_speedup_when_memory_bound():
    # Long rows => row streaming dominates => ~2x from doubled bandwidth
    # (enough rows that the one-off SMI channel latency amortises).
    A, B, x = _random_problem(192, seed=5, m=512)
    _, t_single = run_single_sim(1.0, 1.0, A, B, x)
    _, t_dist = run_distributed_sim(1.0, 1.0, A, B, x)
    assert t_single / t_dist > 1.6


def _run_recording_banks(monkeypatch, run, banks, ghost):
    """``run`` on boards of ``banks`` DDR banks, every bank with a second
    registered reader if ``ghost``; returns the result, the elapsed time,
    each bank's ``total_granted`` and how many reads were booked at once."""
    made, booked = [], []
    init, book = memory.MemoryBank.__init__, memory.MemoryBank.book

    def bank_init(bank, *args, **kwargs):
        init(bank, *args, **kwargs)
        made.append(bank)
        if ghost:
            bank.readers.add("ghost")

    def spy_book(bank, elements):
        booked.append(elements)
        return book(bank, elements)

    monkeypatch.setattr(memory.MemoryBank, "__init__", bank_init)
    monkeypatch.setattr(memory.MemoryBank, "book", spy_book)
    A, B, x = _random_problem(40, seed=6, m=72)
    y, us = run(1.5, -0.5, A, B, x, memory=MemoryConfig(num_banks=banks))
    monkeypatch.undo()
    return y, us, [bank.total_granted for bank in made], len(booked)


@pytest.mark.parametrize("banks", [1, 2, 4])
@pytest.mark.parametrize("run", [run_single_sim, run_distributed_sim],
                         ids=["single", "distributed"])
def test_a_sole_reader_books_each_row_at_once(monkeypatch, run, banks):
    """A GEMV reading banks no other kernel reads books each row in one
    resume; a second registered reader on every bank forces the
    per-cycle grant loop. Both give the same cycles, result and per-bank
    grants. With one bank ``run_single_sim`` hands both GEMVs the same
    ports, so that program runs the loop either way: a bank is shared by
    reading kernels, not by ports."""
    y, us, granted, books = _run_recording_banks(monkeypatch, run, banks,
                                                 ghost=False)
    y_loop, us_loop, granted_loop, books_loop = _run_recording_banks(
        monkeypatch, run, banks, ghost=True)
    assert books_loop == 0
    assert (books == 0) == (run is run_single_sim and banks == 1)
    assert us == us_loop
    assert granted == granted_loop and sum(granted) == 2 * 40 * 72
    np.testing.assert_array_equal(y, y_loop)


# ----------------------------------------------------------------------
# Flow model (Fig. 13)
# ----------------------------------------------------------------------
def test_model_square_times_match_paper_anchors():
    model = GesummvModel()
    # Paper-annotated distributed times (ms): 0.7 / 2.8 / 10.8 / 51.1.
    assert model.distributed_time_s(2048, 2048) * 1e3 == pytest.approx(0.7, rel=0.05)
    assert model.distributed_time_s(4096, 4096) * 1e3 == pytest.approx(2.8, rel=0.05)
    assert model.distributed_time_s(8192, 8192) * 1e3 == pytest.approx(10.8, rel=0.1)
    assert model.distributed_time_s(16384, 16384) * 1e3 == pytest.approx(51.1, rel=0.15)


def test_model_speedup_is_two():
    model = GesummvModel()
    for n, m in [(2048, 2048), (2048, 8192), (16384, 2048)]:
        assert model.speedup(n, m) == pytest.approx(2.0, rel=0.05)


def test_model_scales_with_bandwidth():
    fast = GesummvModel(memory=MemoryConfig(gesummv_stream_bandwidth_Bps=48e9))
    slow = GesummvModel(memory=MemoryConfig(gesummv_stream_bandwidth_Bps=12e9))
    assert fast.distributed_time_s(4096, 4096) < slow.distributed_time_s(4096, 4096)


def test_model_rectangular_symmetry():
    model = GesummvModel()
    assert model.distributed_time_s(2048, 8192) == pytest.approx(
        model.distributed_time_s(8192, 2048), rel=1e-6
    )
