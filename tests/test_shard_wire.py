"""Packed boundary wire format and SPSC rings (repro.shard.wire).

Both sharded backends' correctness rests on this layer being *faithful*:
every batch that crosses a ring must come back
bit-identical — packets (payloads included, for every registered
datatype), visibility cycles, and the horizon/floor bounds the
epoch protocol computes bounds from. These tests pin the codec round
trip, the loud rejection of anything but packets, record splitting,
ring wraparound and full-ring refusal, and the fabric lifecycle.
"""

import numpy as np
import pytest

from repro.core.datatypes import DATATYPES, PACKET_BYTES, SMIDatatype
from repro.core.errors import SimulationError
from repro.network.packet import OpType, Packet
from repro.shard.proxy import AckBatch, ShipBatch
from repro.shard.wire import (
    KIND_SHIP,
    RECORD_HEADER,
    ShmFabric,
    ShmRing,
    pack_ack,
    pack_ack_records,
    pack_ship,
    pack_ship_records,
    unpack_record,
)

KEYS = [(0, 0), (0, 1), (3, 0)]
KEY_IDS = {key: i for i, key in enumerate(KEYS)}


def _unpack(record, kind):
    """The decoded batch, after checking the record's kind tag."""
    tag, batch = unpack_record(record, KEYS)
    assert tag == kind
    return batch


def _data_packet(dtype, seed=0):
    count = min(dtype.elements_per_packet, 5) - (seed % 2)
    rng = np.random.default_rng(seed)
    if dtype.np_dtype.kind == "f":
        payload = rng.standard_normal(count).astype(dtype.np_dtype)
    else:
        payload = rng.integers(-100, 100, count).astype(dtype.np_dtype)
    return Packet(src=seed % 8, dst=(seed + 1) % 8, port=seed % 3,
                  op=OpType.DATA, count=count, payload=payload, dtype=dtype)


def _control_packet(op, seed=0):
    return Packet(src=seed % 8, dst=(seed + 3) % 8, port=1, op=op)


def _assert_packets_equal(a, b):
    assert a.encode() == b.encode()
    assert (a.dtype.name if a.dtype else None) == \
        (b.dtype.name if b.dtype else None)
    if a.dtype is not None and a.count:
        np.testing.assert_array_equal(a.payload[: a.count],
                                      b.payload[: b.count])


def _assert_ship_equal(a, b):
    assert a.key == b.key
    assert a.cycles == b.cycles
    assert a.horizon == b.horizon
    assert len(a.items) == len(b.items)
    for pa, pb in zip(a.items, b.items):
        _assert_packets_equal(pa, pb)


# ----------------------------------------------------------------------
# Record codec round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DATATYPES))
def test_ship_roundtrip_every_datatype(name):
    dtype = DATATYPES[name]
    items = tuple(_data_packet(dtype, seed) for seed in range(4))
    ship = ShipBatch((0, 1), items, (10, 11, 13, 20), horizon=37)
    record = pack_ship(KEY_IDS[(0, 1)], ship)
    assert RECORD_HEADER.unpack_from(record)[0] == KIND_SHIP
    _assert_ship_equal(ship, _unpack(record, "ship"))


def test_ship_roundtrip_control_packets():
    """CREDIT/SYNC packets (count 0, no dtype) take the fast path."""
    items = tuple(_control_packet(op, seed)
                  for seed, op in enumerate((OpType.CREDIT, OpType.DATA,
                                             OpType.PING, OpType.PONG)))
    ship = ShipBatch((3, 0), items, (5, 5, 6, 9), horizon=12)
    record = pack_ship(KEY_IDS[(3, 0)], ship)
    assert RECORD_HEADER.unpack_from(record)[0] == KIND_SHIP
    _assert_ship_equal(ship, _unpack(record, "ship"))


def test_empty_ship_roundtrip():
    ship = ShipBatch((0, 0), (), (), horizon=64)
    _assert_ship_equal(ship, _unpack(pack_ship(0, ship), "ship"))


def test_ack_roundtrip():
    ack = AckBatch((0, 1), tuple(range(100, 164)), floor=163)
    got = _unpack(pack_ack(KEY_IDS[(0, 1)], ack), "ack")
    assert got.key == ack.key
    assert got.cycles == ack.cycles
    assert got.floor == ack.floor


def test_non_packet_items_are_rejected_loudly():
    """A cut link carries plain registered-dtype Packets and nothing
    else: anything different is refused where it enters the codec, by
    name — there is no second, slower encoding to fall back to."""
    def ship(*items):
        return ShipBatch((0, 0), items, tuple(range(len(items))),
                         horizon=20)

    ok = Packet(0, 1, 0, OpType.DATA, 1, np.zeros(1, np.float32),
                DATATYPES["SMI_FLOAT"])
    with pytest.raises(SimulationError, match="item 1 is a dict, not a "
                                              "Packet"):
        pack_ship(0, ship(ok, {"not": "a packet"}))
    with pytest.raises(SimulationError, match="item 0 is a tuple"):
        pack_ship(0, ship((1, 2, 3)))
    odd = SMIDatatype("SMI_HALF", 2, np.dtype(np.float16))
    with pytest.raises(SimulationError,
                       match="item 0: unregistered datatype SMI_HALF"):
        pack_ship(0, ship(Packet(0, 1, 0, OpType.DATA, 1,
                                 np.zeros(1, np.float16), odd)))
    wide = Packet(0, 1, 0, OpType.DATA, 7, np.zeros(8, np.float32),
                  DATATYPES["SMI_FLOAT"])
    wide.count = 8  # past the constructor's capacity check
    with pytest.raises(SimulationError,
                       match="item 0: 32-byte payload exceeds the 28-byte"):
        pack_ship(0, ship(wide))


def test_unpack_kind_mismatch_raises():
    """A record's kind tag, not the caller's expectation, types the batch."""
    ship = ShipBatch((0, 0), (), (), horizon=1)
    tag, batch = unpack_record(pack_ship(0, ship), KEYS)
    assert tag == "ship" and isinstance(batch, ShipBatch)
    ack = AckBatch((0, 0), (), floor=1)
    tag, batch = unpack_record(pack_ack(0, ack), KEYS)
    assert tag == "ack" and isinstance(batch, AckBatch)


# ----------------------------------------------------------------------
# Record splitting
# ----------------------------------------------------------------------
def test_ship_record_splitting_roundtrip():
    dtype = DATATYPES["SMI_FLOAT"]
    items = tuple(_data_packet(dtype, seed) for seed in range(32))
    ship = ShipBatch((0, 1), items, tuple(range(32)), horizon=99)
    whole = pack_ship(1, ship)
    max_bytes = len(whole) // 3
    records = pack_ship_records(1, ship, max_bytes)
    assert len(records) > 1
    assert all(len(r) <= max_bytes for r, _ in records)
    assert sum(count for _, count in records) == 32
    rebuilt_items, rebuilt_cycles = [], []
    segments = [_unpack(record, "ship") for record, _ in records]
    for i, seg in enumerate(segments):
        # A segment may only promise up to the next segment's earliest
        # cycle — a backlogged tail must never be outrun by its head's
        # published horizon.
        if i + 1 < len(segments):
            assert seg.horizon <= segments[i + 1].cycles[0]
        rebuilt_items.extend(seg.items)
        rebuilt_cycles.extend(seg.cycles)
    assert segments[-1].horizon == 99  # final segment restores the bound
    _assert_ship_equal(ship, ShipBatch((0, 1), tuple(rebuilt_items),
                                       tuple(rebuilt_cycles), 99))


def test_ack_record_splitting_roundtrip():
    ack = AckBatch((0, 0), tuple(range(64)), floor=70)
    records = pack_ack_records(0, ack, max_bytes=128)
    assert len(records) > 1
    assert sum(count for _, count in records) == 64
    cycles = []
    segments = [_unpack(record, "ack") for record, _ in records]
    for i, seg in enumerate(segments):
        if i + 1 < len(segments):
            assert seg.floor < segments[i + 1].cycles[0]
        cycles.extend(seg.cycles)
    assert segments[-1].floor == 70  # final segment restores the bound
    assert tuple(cycles) == ack.cycles


def test_unsplittable_record_raises():
    """A single item that cannot fit the ring is a hard config error."""
    pkt = Packet(0, 1, 0, OpType.DATA, 7, np.zeros(7, np.float32),
                 DATATYPES["SMI_FLOAT"])
    ship = ShipBatch((0, 0), (pkt,), (1,), horizon=2)
    assert RECORD_HEADER.size == 20
    assert len(pack_ship(0, ship)) == 61  # 20 + 9k + 32k at k = 1
    with pytest.raises(SimulationError, match="RING_BYTES"):
        pack_ship_records(0, ship, max_bytes=56)


# ----------------------------------------------------------------------
# SPSC rings
# ----------------------------------------------------------------------
def test_ring_wraparound_preserves_records():
    """Records crossing the physical end of the buffer come back intact."""
    buf = bytearray(ShmRing.CTRL_BYTES + 64)
    ring = ShmRing(memoryview(buf), 0, 64)
    payloads = [bytes([i]) * (11 + (i * 7) % 23) for i in range(64)]
    popped = []
    pending = list(payloads)
    while pending or popped != payloads:
        while pending and ring.try_push(pending[0]):
            pending.pop(0)
        record = ring.try_pop()
        assert record is not None, "ring stuck with records pending"
        popped.append(record)
    assert popped == payloads
    assert ring.try_pop() is None


def test_ring_full_refuses_without_corruption():
    buf = bytearray(ShmRing.CTRL_BYTES + 32)
    ring = ShmRing(memoryview(buf), 0, 32)
    assert ring.record_capacity == 28
    assert ring.try_push(b"a" * 20)
    assert not ring.try_push(b"b" * 20)   # 4 + 20 does not fit the rest
    assert not ring.try_push(b"c" * 29)   # never fits at all
    assert ring.try_pop() == b"a" * 20
    assert ring.try_push(b"b" * 28)       # exactly record_capacity
    assert ring.try_pop() == b"b" * 28
    assert ring.try_pop() is None


def test_fabric_rings_are_independent_and_closeable():
    for shared in (True, False):  # the shared block, the private buffer
        fabric = ShmFabric(KEYS, shared)
        try:
            assert fabric.keys_by_id == sorted(KEYS)
            assert fabric.key_ids[(0, 0)] == 0
            fabric.ship_rings[(0, 0)].try_push(b"ship00")
            fabric.ack_rings[(0, 0)].try_push(b"ack00")
            fabric.ship_rings[(3, 0)].try_push(b"ship30")
            assert fabric.ship_rings[(0, 1)].try_pop() is None
            assert fabric.ship_rings[(0, 0)].try_pop() == b"ship00"
            assert fabric.ack_rings[(0, 0)].try_pop() == b"ack00"
            assert fabric.ship_rings[(3, 0)].try_pop() == b"ship30"
        finally:
            fabric.close()  # must not raise BufferError (views released)
