"""Network packet format (§4.1–4.2).

A network packet is the minimal unit of routing and is as wide as the BSP's
I/O channel: 32 bytes. It carries 4 bytes of header and 28 bytes of payload:

* source rank — 1 byte
* destination rank — 1 byte
* port — 1 byte
* operation type — 3 bits, and number of valid payload elements — 5 bits

(the rank and port fields are truncated to 8 bits "to mitigate the penalty of
packet switching", §4.2 — hence at most 256 ranks/ports).

Inside the simulator packets travel as Python objects for speed; the
bit-exact 32-byte encoding is implemented and tested so the wire format of
the reference implementation is fully specified, and the sharded backends'
boundary codec (:mod:`repro.shard.wire`) ships packets in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from ..core.datatypes import PACKET_BYTES, PAYLOAD_BYTES, SMIDatatype
from ..core.errors import ConfigurationError, SimulationError


class OpType(IntEnum):
    """Packet operation type (3-bit field)."""

    DATA = 0          # point-to-point / collective payload
    SYNC_READY = 1    # Bcast/Scatter rendezvous: receiver is ready (§4.4)
    CREDIT = 2        # Reduce credit release from the root (§4.4)
    GRANT = 3         # Gather: root grants a rank permission to stream
    PING = 4          # latency microbenchmark probe
    PONG = 5          # latency microbenchmark response

    @classmethod
    def from_bits(cls, bits: int) -> "OpType":
        try:
            return cls(bits)
        except ValueError:
            raise SimulationError(f"invalid op-type bits: {bits}") from None


# 5-bit valid-count field limits elements per packet. The paper's smallest
# type (char) yields 28 elements per packet, which fits in 5 bits (<= 31).
MAX_VALID_COUNT = 31


def _reject_header_field(name: str, value: int) -> None:
    raise ConfigurationError(
        f"packet {name}={value} does not fit the 1-byte header "
        "field (§4.2 truncates ranks and ports to 8 bits)"
    )


@dataclass
class Packet:
    """One 32-byte network packet.

    ``payload`` is a NumPy array of up to ``dtype.elements_per_packet``
    elements of the message datatype; ``count`` of them are valid. Control
    packets (non-DATA ops) typically carry an empty payload, though CREDIT
    packets reuse ``count`` semantics via the payload of a single element.
    """

    src: int
    dst: int
    port: int
    op: OpType = OpType.DATA
    count: int = 0
    payload: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint8))
    dtype: SMIDatatype | None = None

    def __post_init__(self) -> None:
        # Straight-line header validation: one packet is built per 28
        # payload bytes moved, so no loop and no property call here.
        if not 0 <= self.src <= 255:
            _reject_header_field("src", self.src)
        if not 0 <= self.dst <= 255:
            _reject_header_field("dst", self.dst)
        if not 0 <= self.port <= 255:
            _reject_header_field("port", self.port)
        count = self.count
        if not 0 <= count <= MAX_VALID_COUNT:
            raise ConfigurationError(
                f"packet count={count} does not fit the 5-bit field"
            )
        dtype = self.dtype
        # count > PAYLOAD_BYTES // size, without the division.
        if dtype is not None and count * dtype.size > PAYLOAD_BYTES:
            raise ConfigurationError(
                f"count={count} exceeds capacity "
                f"{dtype.elements_per_packet} of {dtype.name}"
            )

    # ------------------------------------------------------------------
    # Wire codec
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to the 32-byte wire format."""
        header = bytes(
            (self.src, self.dst, self.port, ((self.op & 0b111) << 5) | self.count)
        )
        if self.dtype is not None and self.count:
            body = np.asarray(self.payload[: self.count], self.dtype.np_dtype).tobytes()
        else:
            body = b""
        if len(body) > PAYLOAD_BYTES:
            raise SimulationError(
                f"{len(body)}-byte payload exceeds the {PAYLOAD_BYTES}-byte "
                "packet body"
            )
        return header + body + bytes(PAYLOAD_BYTES - len(body))

    @classmethod
    def decode(cls, wire: bytes, dtype: SMIDatatype | None = None) -> "Packet":
        """Deserialize a 32-byte wire packet.

        ``dtype`` is needed to reinterpret payload bytes as elements; it is
        per-port knowledge in SMI (the channel carries the type, §3.1.1).
        """
        if len(wire) != PACKET_BYTES:
            raise SimulationError(
                f"wire packet must be {PACKET_BYTES} B, got {len(wire)}"
            )
        src, dst, port, opcount = wire[0], wire[1], wire[2], wire[3]
        op = OpType.from_bits(opcount >> 5)
        count = opcount & 0b11111
        if dtype is not None and count:
            nbytes = count * dtype.size
            payload = np.frombuffer(wire[4 : 4 + nbytes], dtype=dtype.np_dtype).copy()
        else:
            payload = np.zeros(0, np.uint8)
        return cls(src=src, dst=dst, port=port, op=op, count=count,
                   payload=payload, dtype=dtype)

    # ------------------------------------------------------------------
    @property
    def payload_bytes(self) -> int:
        """Valid payload bytes carried (0 for control packets)."""
        if self.dtype is None:
            return 0
        return self.count * self.dtype.size

    def elements(self) -> np.ndarray:
        """The valid payload elements."""
        return self.payload[: self.count]

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        return (
            f"Packet({self.op.name} {self.src}->{self.dst} port={self.port} "
            f"count={self.count})"
        )

