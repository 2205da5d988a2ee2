"""Element -> packet conversion shared by Push and the support kernels.

``SMI_Push`` "internally accumulates data items until a network packet is
full. The packet is then forwarded to CKS" (§4.2). :class:`PacketPacker`
implements exactly that, and is reused by the collective support kernels
which face the same packet interface towards the transport.
"""

from __future__ import annotations

import numpy as np

from ..core.datatypes import SMIDatatype
from ..core.errors import ChannelError
from ..network.packet import OpType, Packet


class PacketPacker:
    """Accumulates elements and emits full (or final partial) packets."""

    __slots__ = ("src", "dst", "port", "dtype", "epp", "_buf", "_emitted")

    def __init__(self, src: int, dst: int, port: int, dtype: SMIDatatype) -> None:
        self.src = src
        self.dst = dst
        self.port = port
        self.dtype = dtype
        #: ``dtype.elements_per_packet``, computed once (it is a division).
        self.epp = dtype.elements_per_packet
        self._buf: list = []
        self._emitted = 0

    @property
    def pending(self) -> int:
        """Elements buffered but not yet emitted in a packet."""
        return len(self._buf)

    def retarget(self, dst: int) -> None:
        """Point subsequent packets at a new destination (support kernels).

        Only legal on a packet boundary: changing destination with a partial
        packet buffered would interleave two messages in one packet.
        """
        if self._buf:
            raise ChannelError("cannot retarget with a partial packet buffered")
        self.dst = dst

    def add(self, value) -> Packet | None:
        """Buffer one element; return a full packet when one completes."""
        buf = self._buf
        buf.append(value)
        if len(buf) == self.epp:
            return self._make()
        return None

    def flush(self) -> Packet | None:
        """Emit a final partial packet, if any elements are buffered."""
        if self._buf:
            return self._make()
        return None

    def pack_slice(self, values: np.ndarray) -> Packet:
        """Emit one packet carrying the buffered elements followed by
        ``values`` — what :meth:`add` returns on the last of them, without
        a Python-level step per element. The caller has sliced ``values``
        so that the packet is full (or is the message's final flush);
        the payload is a copy, never a view of the caller's array.
        """
        if self._buf:
            payload = np.concatenate(
                [np.array(self._buf, dtype=self.dtype.np_dtype), values]
            )
            self._buf.clear()
        else:
            payload = values.copy()
        return self._from_payload(payload)

    def buffer(self, values: np.ndarray) -> None:
        """Buffer a trailing run of elements too short to fill a packet."""
        self._buf.extend(values.tolist())

    def pack_run(self, values: np.ndarray, flush_tail: bool = False) -> list[Packet]:
        """Vectorised :meth:`add` over a whole array (burst fast path).

        Consumes ``values`` (prefixed by any partially buffered elements)
        and returns every packet that completes, slicing payloads straight
        out of the array instead of appending element by element. A
        trailing partial packet stays buffered — unless ``flush_tail`` is
        set (the run ends the message), in which case it is emitted exactly
        like the per-element path's final :meth:`flush`.
        """
        vals = np.asarray(values, dtype=self.dtype.np_dtype)
        if self._buf:
            vals = np.concatenate(
                [np.array(self._buf, dtype=self.dtype.np_dtype), vals]
            )
            self._buf.clear()
        epp = self.epp
        full = len(vals) // epp
        packets = [
            self._from_payload(np.array(vals[k * epp : (k + 1) * epp]))
            for k in range(full)
        ]
        tail = vals[full * epp :]
        if len(tail):
            if flush_tail:
                packets.append(self._from_payload(np.array(tail)))
            else:
                self._buf = list(tail)
        return packets

    def fast_forward(self, packets: int, buffered) -> None:
        """Account ``packets`` emitted in closed form (the planner's
        analytic jump builds them itself); the partial packet now holds
        ``buffered``, the elements just before the advanced frontier."""
        self._emitted += packets
        self._buf[:] = list(buffered)

    def _make(self) -> Packet:
        payload = np.array(self._buf, dtype=self.dtype.np_dtype)
        self._buf.clear()
        return self._from_payload(payload)

    def _from_payload(self, payload: np.ndarray) -> Packet:
        self._emitted += 1
        return Packet(self.src, self.dst, self.port, OpType.DATA,
                      len(payload), payload, self.dtype)

