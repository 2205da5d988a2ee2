"""Packed boundary wire format and SPSC rings (both sharded backends).

The unit of exchange between two shards is one
:class:`~repro.shard.proxy` batch per boundary link per exchange. PR 5
pickled each batch — one Python object graph per packet — which made
serialization the dominant cost of a process-sharded run. This module
replaces that with a packed binary codec and a ring transport:

* **Record codec** — one struct-packed header plus contiguous
  ``numpy`` payload blocks per batch. A :class:`ShipBatch` of ``k``
  packets becomes ``20 + 9k + 32k`` bytes: an ``int64`` visibility-cycle
  block, a 1-byte-per-packet datatype-id sidecar (the 32-byte wire
  format drops the payload's element type, which in SMI is per-port
  knowledge — see :meth:`repro.network.packet.Packet.decode`), and the
  packets themselves in the bit-exact 32-byte wire layout of §4.1–4.2.
  A cut link carries plain :class:`Packet` objects of registered scalar
  datatypes and nothing else; anything different (a test double, an
  unregistered datatype, an oversized payload) is rejected where it
  enters the codec with a :class:`SimulationError` naming it.

* **SPSC byte rings** (:class:`ShmRing`) — single-producer
  single-consumer rings of length-prefixed records carved out of one
  buffer (:class:`ShmFabric` — a ``multiprocessing.shared_memory``
  block for forked workers, a private zero buffer in-process), two per
  boundary channel (ship and ack directions). Head/tail are monotone
  ``int64`` counters; the producer writes the record body before
  publishing the new head, which on the total-store-order memory model
  CPython runs under (x86-64, and the GIL-serialised stores elsewhere)
  is sufficient for SPSC correctness. A full ring makes ``try_push``
  return ``False`` — the caller keeps the record in a backlog and
  retries, it is never dropped — and records wider than the ring are
  split at batch granularity by :func:`pack_ship_records` /
  :func:`pack_ack_records` (applying a split batch in segments is
  equivalent: cycles stay monotone and floors are per-record).

For the process backend the coordinator creates the fabric before
forking and unlinks it immediately, so workers inherit the one mapping
and no name can leak — crash-safe by construction.

Channel keys (the ``(src rank, iface)`` tuples of
:class:`~repro.shard.timesync.BoundaryChannel`) never cross the wire:
both sides index the same sorted key table, built identically from the
partition, and records carry the 32-bit table index.
"""

from __future__ import annotations

import struct

import numpy as np

from ..core.datatypes import DATATYPES, PACKET_BYTES
from ..core.errors import SimulationError
from ..network.packet import Packet
from .proxy import AckBatch, ShipBatch

#: Record kinds (header field 0).
KIND_SHIP = 1  # packed ship: cycles + dtype ids + 32-byte packets
KIND_ACK = 3   # ack: cycles block only

#: Record header: kind (u8), flags (u8, reserved), pad (u16), key id
#: (u32), count (u32; items for ships, cycles for acks), and one
#: kind-specific ``int64`` bound — the horizon for ships, the take
#: floor for acks.
RECORD_HEADER = struct.Struct("<BBHIIq")

#: Capacity, in bytes, of each shared-memory ring (two rings — ship and
#: ack — per directed boundary link). A full ring never drops a record:
#: the writer backlogs and retries, and oversized batches are split at
#: item granularity, so the size only trades memory against retries;
#: 1 MiB holds thousands of epochs of typical boundary traffic.
RING_BYTES = 1 << 20

#: Datatype-id sidecar values: 0 is "no datatype" (control packets),
#: ids 1.. index the sorted registry — identical in every process that
#: imports this module, so the id table itself never needs shipping.
DTYPES_BY_ID: tuple = (None,) + tuple(
    DATATYPES[name] for name in sorted(DATATYPES)
)
DTYPE_IDS: dict[str, int] = {
    dt.name: i for i, dt in enumerate(DTYPES_BY_ID) if dt is not None
}


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
def pack_ship(key_id: int, ship) -> bytes:
    """One ShipBatch as a wire record: each packet in its
    :meth:`Packet.encode` layout, behind the dtype-id sidecar."""
    items = ship.items
    ids = bytearray(len(items))
    rows = []
    for i, pkt in enumerate(items):
        if type(pkt) is not Packet:
            raise SimulationError(
                f"boundary item {i} is a {type(pkt).__name__}, not a Packet")
        dtype = pkt.dtype
        if dtype is not None:
            did = ids[i] = DTYPE_IDS.get(dtype.name, 0)
            if not did:
                raise SimulationError(f"boundary item {i}: unregistered "
                                      f"datatype {dtype.name}")
        try:
            rows.append(pkt.encode())
        except SimulationError as exc:
            raise SimulationError(f"boundary item {i}: {exc}") from None
    head = RECORD_HEADER.pack(KIND_SHIP, 0, 0, key_id, len(items),
                              ship.horizon)
    cycles = np.asarray(ship.cycles, dtype=np.int64)
    return b"".join((head, cycles.tobytes(), ids, *rows))


def pack_ack(key_id: int, ack) -> bytes:
    """One AckBatch as a wire record."""
    head = RECORD_HEADER.pack(KIND_ACK, 0, 0, key_id,
                              len(ack.cycles), ack.floor)
    return head + np.asarray(ack.cycles, dtype=np.int64).tobytes()


def unpack_record(record: bytes, keys_by_id) -> tuple[str, object]:
    """Decode one record; returns ``("ship"|"ack", batch)``."""
    kind, _flags, _pad, key_id, n, bound = RECORD_HEADER.unpack_from(record)
    key = keys_by_id[key_id]
    body = record[RECORD_HEADER.size:]
    if kind == KIND_ACK:
        cycles = tuple(
            int(c) for c in np.frombuffer(body, np.int64, count=n)
        )
        return "ack", AckBatch(key, cycles, bound)
    if kind != KIND_SHIP:  # pragma: no cover - protocol guard
        raise SimulationError(f"unknown boundary record kind {kind}")
    cycles = tuple(int(c) for c in np.frombuffer(body, np.int64, count=n))
    ids = body[8 * n:9 * n]
    at = 9 * n
    items = []
    for did in ids:
        items.append(Packet.decode(body[at:at + PACKET_BYTES],
                                   DTYPES_BY_ID[did]))
        at += PACKET_BYTES
    return "ship", ShipBatch(key, tuple(items), cycles, bound)


def _split(batch, max_bytes: int, packer, splitter, sizer) -> list:
    record = packer(batch)
    if len(record) <= max_bytes:
        return [(record, sizer(batch))]
    halves = splitter(batch)
    if halves is None:
        raise SimulationError(
            f"boundary record of {len(record)} B cannot fit a "
            f"{max_bytes} B ring even as a single item "
            "(ring capacity is repro.shard.wire.RING_BYTES)"
        )
    return (_split(halves[0], max_bytes, packer, splitter, sizer)
            + _split(halves[1], max_bytes, packer, splitter, sizer))


def pack_ship_records(key_id: int, ship,
                      max_bytes: int) -> list[tuple[bytes, int]]:
    """ShipBatch as ``(record, item count)`` pairs each fitting ``max_bytes``.

    Each segment's *horizon* only promises what that segment (plus its
    predecessors) actually carries: the first half advertises the second
    half's earliest cycle, and only the final segment advertises the
    batch horizon. A segment may sit in a full-ring backlog for several
    rounds — had it carried the batch horizon, the peer could advance
    past cycles whose items are still queued behind the ring. The
    per-record item counts let a caller account shipped items at the
    moment a record actually reaches its ring.
    """
    def splitter(b):
        if len(b.items) < 2:
            return None
        mid = len(b.items) // 2
        return (ShipBatch(b.key, b.items[:mid], b.cycles[:mid],
                          min(b.horizon, b.cycles[mid])),
                ShipBatch(b.key, b.items[mid:], b.cycles[mid:], b.horizon))

    return _split(ship, max_bytes, lambda b: pack_ship(key_id, b),
                  splitter, lambda b: len(b.items))


def pack_ack_records(key_id: int, ack,
                     max_bytes: int) -> list[tuple[bytes, int]]:
    """AckBatch as ``(record, cycle count)`` pairs each fitting ``max_bytes``.

    As with ships, a non-final segment's *floor* stops just short of the
    next segment's earliest cycle so a backlogged tail can never be
    outrun by the bound its own head published.
    """
    def splitter(b):
        if len(b.cycles) < 2:
            return None
        mid = len(b.cycles) // 2
        return (AckBatch(b.key, b.cycles[:mid],
                         min(b.floor, b.cycles[mid] - 1)),
                AckBatch(b.key, b.cycles[mid:], b.floor))

    return _split(ack, max_bytes, lambda b: pack_ack(key_id, b),
                  splitter, lambda b: len(b.cycles))


# ----------------------------------------------------------------------
# Shared-memory rings
# ----------------------------------------------------------------------
class ShmRing:
    """SPSC ring of length-prefixed byte records over a shared buffer.

    ``head``/``tail`` are monotone byte counters (they never wrap; the
    data index is ``counter % capacity``), stored as two ``int64`` at
    the start of the slot. Exactly one process pushes and exactly one
    pops; the GIL plus x86-TSO store ordering make the head publish a
    sufficient barrier for that pairing.
    """

    CTRL_BYTES = 16

    def __init__(self, buf, offset: int, capacity: int) -> None:
        self._ctrl = np.frombuffer(buf, dtype=np.int64, count=2,
                                   offset=offset)
        self._data = np.frombuffer(buf, dtype=np.uint8, count=capacity,
                                   offset=offset + self.CTRL_BYTES)
        self.capacity = capacity

    @property
    def record_capacity(self) -> int:
        """Largest record ``try_push`` can ever accept."""
        return self.capacity - 4

    def try_push(self, record: bytes) -> bool:
        """Append one record; False (and no write) when it does not fit."""
        need = 4 + len(record)
        head = int(self._ctrl[0])
        if self.capacity - (head - int(self._ctrl[1])) < need:
            return False
        self._write(head, len(record).to_bytes(4, "little"))
        self._write(head + 4, record)
        self._ctrl[0] = head + need  # publish after the body is visible
        return True

    def try_pop(self) -> bytes | None:
        """Remove and return the oldest record, or None when empty."""
        tail = int(self._ctrl[1])
        if int(self._ctrl[0]) == tail:
            return None
        n = int.from_bytes(self._read(tail, 4), "little")
        record = self._read(tail + 4, n)
        self._ctrl[1] = tail + 4 + n
        return record

    def _write(self, pos: int, data: bytes) -> None:
        start = pos % self.capacity
        end = start + len(data)
        arr = np.frombuffer(data, np.uint8)
        if end <= self.capacity:
            self._data[start:end] = arr
        else:
            cut = self.capacity - start
            self._data[start:] = arr[:cut]
            self._data[: end - self.capacity] = arr[cut:]

    def _read(self, pos: int, n: int) -> bytes:
        start = pos % self.capacity
        end = start + n
        if end <= self.capacity:
            return self._data[start:end].tobytes()
        return (self._data[start:].tobytes()
                + self._data[: end - self.capacity].tobytes())

    def release(self) -> None:
        """Drop the buffer views (required before the mapping closes)."""
        self._ctrl = None
        self._data = None


class ShmFabric:
    """One buffer holding a ship+ack ring per channel key.

    ``shared`` picks the buffer. For forked workers it is a
    shared-memory block, created by the coordinator *before* forking —
    workers inherit the mapping — and unlinked immediately, so the name
    cannot leak even if every process crashes. In-process it is a
    private ``np.zeros`` buffer (calloc: a ring page costs memory only
    once written). ``close`` releases the coordinator's views and
    mapping; forked workers exit via ``os._exit`` and never need to.
    """

    def __init__(self, keys, shared: bool) -> None:
        self.keys_by_id = sorted(keys)
        self.key_ids = {key: i for i, key in enumerate(self.keys_by_id)}
        self.ring_bytes = ring_bytes = RING_BYTES
        slot = ShmRing.CTRL_BYTES + ring_bytes
        size = max(1, 2 * slot * len(self.keys_by_id))
        if shared:
            from multiprocessing import shared_memory

            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._shm.unlink()  # the mapping outlives the name
            buf = self._shm.buf
            buf[:size] = bytes(size)
        else:
            self._shm = None
            buf = np.zeros(size, dtype=np.uint8)
        self.ship_rings: dict = {}
        self.ack_rings: dict = {}
        for i, key in enumerate(self.keys_by_id):
            self.ship_rings[key] = ShmRing(buf, 2 * i * slot, ring_bytes)
            self.ack_rings[key] = ShmRing(buf, (2 * i + 1) * slot,
                                          ring_bytes)

    def close(self) -> None:
        for ring in (*self.ship_rings.values(), *self.ack_rings.values()):
            ring.release()
        if self._shm is not None:
            self._shm.close()
