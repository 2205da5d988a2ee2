"""SMI datatypes (§3.1 of the paper).

SMI messages are typed: a channel is opened with an ``SMI_Datatype`` and every
``SMI_Push``/``SMI_Pop`` must use the same type. The datatype determines how
many elements fit into the 28-byte payload of a network packet (§4.1-4.2):
``elements_per_packet = 28 // size``.

The reference implementation supports the usual C scalar types; we mirror the
set used in the paper's listings and benchmarks (int and float prominently)
plus the remaining fixed-width scalars needed by the applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

#: Payload bytes per network packet (32 B packet minus 4 B header), §4.2.
PAYLOAD_BYTES = 28

#: Total network packet size in bytes — the width of the BSP I/O channel.
PACKET_BYTES = 32

#: Header bytes per network packet.
HEADER_BYTES = PACKET_BYTES - PAYLOAD_BYTES


@dataclass(frozen=True)
class SMIDatatype:
    """A fixed-width element type carried by SMI channels.

    Attributes
    ----------
    name:
        Human-readable name matching the paper's ``SMI_*`` constants.
    size:
        Element size in bytes.
    np_dtype:
        The NumPy dtype used to (de)serialize payload elements.
    """

    name: str
    size: int
    np_dtype: np.dtype

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size > PAYLOAD_BYTES:
            raise ConfigurationError(
                f"datatype {self.name!r} has size {self.size}B; must be in "
                f"[1, {PAYLOAD_BYTES}]"
            )
        if np.dtype(self.np_dtype).itemsize != self.size:
            raise ConfigurationError(
                f"datatype {self.name!r}: numpy dtype "
                f"{np.dtype(self.np_dtype)} has itemsize "
                f"{np.dtype(self.np_dtype).itemsize}, expected {self.size}"
            )

    @property
    def elements_per_packet(self) -> int:
        """How many elements fit in one 28-byte packet payload."""
        return PAYLOAD_BYTES // self.size

    def packets_for(self, count: int) -> int:
        """Number of network packets required to carry ``count`` elements."""
        if count < 0:
            raise ConfigurationError(f"negative element count: {count}")
        epp = self.elements_per_packet
        return -(-count // epp)  # ceil division

    def payload_bytes_for(self, count: int) -> int:
        """Payload bytes occupied by ``count`` elements (excludes headers)."""
        return count * self.size

    def wire_bytes_for(self, count: int) -> int:
        """Total bytes on the wire for ``count`` elements (includes headers)."""
        return self.packets_for(count) * PACKET_BYTES

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SMIDatatype({self.name})"

    def __reduce__(self):
        # A built-in type unpickles to its registered instance: a
        # receiving channel compares a packet's datatype with its own by
        # identity.
        if DATATYPES.get(self.name) is self:
            return datatype_by_name, (self.name,)
        return SMIDatatype, (self.name, self.size, self.np_dtype)


SMI_CHAR = SMIDatatype("SMI_CHAR", 1, np.dtype(np.int8))
SMI_SHORT = SMIDatatype("SMI_SHORT", 2, np.dtype(np.int16))
SMI_INT = SMIDatatype("SMI_INT", 4, np.dtype(np.int32))
SMI_FLOAT = SMIDatatype("SMI_FLOAT", 4, np.dtype(np.float32))
SMI_DOUBLE = SMIDatatype("SMI_DOUBLE", 8, np.dtype(np.float64))
SMI_LONG = SMIDatatype("SMI_LONG", 8, np.dtype(np.int64))

#: All built-in datatypes, keyed by name.
DATATYPES: dict[str, SMIDatatype] = {
    dt.name: dt
    for dt in (SMI_CHAR, SMI_SHORT, SMI_INT, SMI_FLOAT, SMI_DOUBLE, SMI_LONG)
}


def datatype_by_name(name: str) -> SMIDatatype:
    """Look up a built-in datatype by its ``SMI_*`` name."""
    try:
        return DATATYPES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown SMI datatype {name!r}; known: {sorted(DATATYPES)}"
        ) from None
