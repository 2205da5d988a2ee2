"""Unit + property tests for the 32-byte wire packet codec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.datatypes import (
    PACKET_BYTES,
    SMI_CHAR,
    SMI_DOUBLE,
    SMI_FLOAT,
    SMI_INT,
)
from repro.core.errors import ConfigurationError, SimulationError
from repro.network.packet import MAX_VALID_COUNT, OpType, Packet


def test_wire_size_is_32_bytes():
    pkt = Packet(src=1, dst=2, port=3)
    assert len(pkt.encode()) == PACKET_BYTES


def test_header_layout_exact():
    # src | dst | port | (op << 5 | count)  — §4.2.
    pkt = Packet(src=0xAB, dst=0xCD, port=0x11, op=OpType.CREDIT, count=5)
    wire = pkt.encode()
    assert wire[0] == 0xAB
    assert wire[1] == 0xCD
    assert wire[2] == 0x11
    assert wire[3] == (OpType.CREDIT << 5) | 5


def test_data_packet_roundtrip_int():
    data = np.array([10, -20, 30], dtype=np.int32)
    pkt = Packet(src=1, dst=2, port=3, op=OpType.DATA, count=3,
                 payload=data, dtype=SMI_INT)
    out = Packet.decode(pkt.encode(), SMI_INT)
    assert (out.src, out.dst, out.port, out.op, out.count) == (1, 2, 3, OpType.DATA, 3)
    np.testing.assert_array_equal(out.elements(), data)


@given(
    src=st.integers(0, 255),
    dst=st.integers(0, 255),
    port=st.integers(0, 255),
    op=st.sampled_from(list(OpType)),
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=0, max_size=7,
    ),
)
def test_roundtrip_property_float(src, dst, port, op, values):
    payload = np.array(values, dtype=np.float32)
    pkt = Packet(src=src, dst=dst, port=port, op=op,
                 count=len(values), payload=payload, dtype=SMI_FLOAT)
    out = Packet.decode(pkt.encode(), SMI_FLOAT)
    assert (out.src, out.dst, out.port, out.op, out.count) == (
        src, dst, port, op, len(values)
    )
    np.testing.assert_array_equal(out.elements(), payload)


@given(values=st.lists(st.integers(-128, 127), min_size=0, max_size=28))
def test_roundtrip_property_char_full_packet(values):
    payload = np.array(values, dtype=np.int8)
    pkt = Packet(src=0, dst=1, port=0, count=len(values),
                 payload=payload, dtype=SMI_CHAR)
    out = Packet.decode(pkt.encode(), SMI_CHAR)
    np.testing.assert_array_equal(out.elements(), payload)


def test_max_valid_count_fits_5_bits():
    assert MAX_VALID_COUNT == 31
    assert SMI_CHAR.elements_per_packet <= MAX_VALID_COUNT


@pytest.mark.parametrize("field", ["src", "dst", "port"])
def test_header_fields_reject_more_than_8_bits(field):
    kwargs = {"src": 0, "dst": 0, "port": 0, field: 256}
    with pytest.raises(ConfigurationError, match="1-byte header"):
        Packet(**kwargs)


def test_count_rejects_more_than_5_bits():
    with pytest.raises(ConfigurationError):
        Packet(src=0, dst=0, port=0, count=32)


def test_count_rejects_exceeding_dtype_capacity():
    with pytest.raises(ConfigurationError, match="capacity"):
        Packet(src=0, dst=0, port=0, count=5,
               payload=np.zeros(5, np.float64), dtype=SMI_DOUBLE)


def test_decode_rejects_wrong_length():
    with pytest.raises(SimulationError):
        Packet.decode(b"\x00" * 31)


def test_decode_rejects_invalid_op_bits():
    wire = bytearray(32)
    wire[3] = 0b111 << 5  # op=7 undefined
    with pytest.raises(SimulationError, match="op-type"):
        Packet.decode(bytes(wire))


def test_control_packet_has_no_payload_bytes():
    pkt = Packet(src=0, dst=1, port=2, op=OpType.SYNC_READY)
    assert pkt.payload_bytes == 0
    out = Packet.decode(pkt.encode())
    assert out.op == OpType.SYNC_READY
    assert out.count == 0

