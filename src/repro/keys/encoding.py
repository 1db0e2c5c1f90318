"""Fixed-width, order-preserving key codecs.

The paper evaluates 64-bit, 128-bit, and 30-byte keys (sections 6.1 and
6.3).  All codecs here produce big-endian byte strings so that byte-wise
lexicographic comparison equals numeric (or string) comparison, which is
what both the sorted-array B+-tree leaves and the blind tries rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import KeyEncodingError


def key_width_error(key: bytes, width: int) -> KeyEncodingError:
    """The error for a ``len(key)``-byte key given to an index of
    ``width``-byte keys.  Every registered index raises it before it
    charges or changes anything."""
    return KeyEncodingError(f"key width {len(key)} != {width}")


def check_key_widths(keys: Iterable[bytes], width: int) -> None:
    """Raise :func:`key_width_error` for the first key of ``keys`` that
    is not ``width`` bytes (batch forms check the whole batch first)."""
    for key in keys:
        if len(key) != width:
            raise key_width_error(key, width)


@dataclass(frozen=True)
class KeySpec:
    """Describes a fixed-width key type used by an index.

    Attributes:
        name: Human-readable name (used in benchmark output).
        width: Key width in bytes.  All keys handled by an index built for
            this spec must be exactly this long.
    """

    name: str
    width: int

    @property
    def bits(self) -> int:
        """Key width in bits."""
        return self.width * 8

    def validate(self, key: bytes) -> None:
        """Raise ``ValueError`` if ``key`` does not conform to this spec."""
        if len(key) != self.width:
            raise ValueError(
                f"key of length {len(key)} does not match spec "
                f"{self.name!r} (width {self.width})"
            )


#: 64-bit unsigned integer keys (paper's default microbenchmark key type).
U64 = KeySpec("u64", 8)

#: 128-bit keys (paper sections 6.1 and 6.4).
U128 = KeySpec("u128", 16)

#: 30-byte string keys (paper section 6.1, "30-byte keys").
STR30 = KeySpec("str30", 30)


def encode_u64(value: int) -> bytes:
    """Encode an unsigned 64-bit integer as an order-preserving 8-byte key."""
    if not 0 <= value < 1 << 64:
        raise ValueError(f"value {value} out of range for u64")
    return value.to_bytes(8, "big")


def decode_u64(key: bytes) -> int:
    """Inverse of :func:`encode_u64`."""
    if len(key) != 8:
        raise ValueError(f"u64 key must be 8 bytes, got {len(key)}")
    return int.from_bytes(key, "big")


def encode_u128(value: int) -> bytes:
    """Encode an unsigned 128-bit integer as an order-preserving 16-byte key."""
    if not 0 <= value < 1 << 128:
        raise ValueError(f"value {value} out of range for u128")
    return value.to_bytes(16, "big")


def decode_u128(key: bytes) -> int:
    """Inverse of :func:`encode_u128`."""
    if len(key) != 16:
        raise ValueError(f"u128 key must be 16 bytes, got {len(key)}")
    return int.from_bytes(key, "big")


def encode_i64(value: int) -> bytes:
    """Encode a *signed* 64-bit integer order-preservingly.

    Flipping the sign bit maps the signed range onto the unsigned range
    monotonically (the standard DBMS key-normalization trick).
    """
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"value {value} out of range for i64")
    return ((value + (1 << 63)) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")


def decode_i64(key: bytes) -> int:
    """Inverse of :func:`encode_i64`."""
    if len(key) != 8:
        raise ValueError(f"i64 key must be 8 bytes, got {len(key)}")
    return int.from_bytes(key, "big") - (1 << 63)


def encode_f64(value: float) -> bytes:
    """Encode an IEEE-754 double order-preservingly.

    Positive floats get their sign bit set; negative floats have all
    bits inverted — total order matches ``<`` on floats (NaN rejected,
    -0.0 normalized to +0.0 so equal keys compare equal).
    """
    import math
    import struct

    if math.isnan(value):
        raise ValueError("NaN is not orderable")
    if value == 0.0:
        value = 0.0  # collapse -0.0
    bits = struct.unpack(">Q", struct.pack(">d", value))[0]
    if bits & (1 << 63):
        bits = ~bits & 0xFFFFFFFFFFFFFFFF
    else:
        bits |= 1 << 63
    return bits.to_bytes(8, "big")


def decode_f64(key: bytes) -> float:
    """Inverse of :func:`encode_f64`."""
    import struct

    if len(key) != 8:
        raise ValueError(f"f64 key must be 8 bytes, got {len(key)}")
    bits = int.from_bytes(key, "big")
    if bits & (1 << 63):
        bits &= ~(1 << 63) & 0xFFFFFFFFFFFFFFFF
    else:
        bits = ~bits & 0xFFFFFFFFFFFFFFFF
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


def encode_str(value: str, width: int = 30) -> bytes:
    """Encode a string as a fixed-width, NUL-padded, order-preserving key.

    Strings longer than ``width`` bytes (after ASCII encoding) are
    rejected rather than silently truncated: truncation would break the
    order-preservation contract.
    """
    raw = value.encode("ascii")
    if len(raw) > width:
        raise ValueError(f"string of {len(raw)} bytes exceeds key width {width}")
    return raw.ljust(width, b"\x00")


def decode_str(key: bytes) -> str:
    """Inverse of :func:`encode_str` (strips NUL padding)."""
    return key.rstrip(b"\x00").decode("ascii")
