"""Binary serialization for on-disk records and order-preserving keys.

Two encodings live here:

``dumps`` / ``loads``
    A compact, self-describing binary format for record *values* — metadata
    dictionaries, numpy arrays (frames, features), and the usual Python
    scalars. It plays the role BerkeleyDB's application-side serializer
    played in the paper's prototype ("serialized in a binary format before
    insertion", Section 3.1). It is not pickle: the format is stable,
    versioned, and refuses unknown types instead of silently executing code.

``encode_key`` / ``decode_key``
    An *order-preserving* encoding for index keys: for any two supported
    values ``a < b  iff  encode_key(a) < encode_key(b)`` bytewise. The B+
    tree and sorted file compare raw bytes, so temporal range scans (frame
    numbers, timestamps) and string ranges work without deserializing keys.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

import numpy as np

from repro.errors import StorageError

# -- value serialization -----------------------------------------------------

_MAGIC = b"DLv1"

_T_NONE = 0x01
_T_FALSE = 0x02
_T_TRUE = 0x03
_T_INT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_LIST = 0x08
_T_TUPLE = 0x09
_T_DICT = 0x0A
_T_NDARRAY = 0x0B
_T_NDARRAY_Z = 0x0C  # zlib-compressed ndarray payload

# Arrays at least this large are zlib-compressed inside ``dumps``. Frames of
# synthetic video are highly compressible, and this mirrors the paper's
# observation that raw frame storage is wasteful.
_COMPRESS_THRESHOLD = 1 << 14


def dumps(obj: Any, *, compress_arrays: bool = True) -> bytes:
    """Serialize ``obj`` to bytes.

    Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``list``, ``tuple``, ``dict`` (string keys not required), and
    ``numpy.ndarray``. Raises :class:`StorageError` on anything else.
    """
    out = bytearray(_MAGIC)
    _write_value(out, obj, compress_arrays)
    return bytes(out)


def loads(buf: bytes) -> Any:
    """Inverse of :func:`dumps`."""
    if buf[:4] != _MAGIC:
        raise StorageError(
            f"bad record magic {buf[:4]!r}; not a DeepLens serialized value"
        )
    value, pos = _read_value(buf, 4)
    if pos != len(buf):
        raise StorageError(f"trailing garbage after record ({len(buf) - pos} bytes)")
    return value


def _write_value(out: bytearray, obj: Any, compress: bool) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(_T_INT)
        payload = int(obj).to_bytes(
            (int(obj).bit_length() + 8) // 8 or 1, "big", signed=True
        )
        out += struct.pack(">I", len(payload))
        out += payload
    elif isinstance(obj, (float, np.floating)):
        out.append(_T_FLOAT)
        out += struct.pack(">d", float(obj))
    elif isinstance(obj, str):
        payload = obj.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack(">I", len(payload))
        out += payload
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        payload = bytes(obj)
        out.append(_T_BYTES)
        out += struct.pack(">I", len(payload))
        out += payload
    elif isinstance(obj, list):
        out.append(_T_LIST)
        out += struct.pack(">I", len(obj))
        for item in obj:
            _write_value(out, item, compress)
    elif isinstance(obj, tuple):
        out.append(_T_TUPLE)
        out += struct.pack(">I", len(obj))
        for item in obj:
            _write_value(out, item, compress)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        out += struct.pack(">I", len(obj))
        for key, value in obj.items():
            _write_value(out, key, compress)
            _write_value(out, value, compress)
    elif isinstance(obj, np.ndarray):
        _write_ndarray(out, obj, compress)
    else:
        raise StorageError(f"cannot serialize value of type {type(obj).__name__}")


def _write_ndarray(out: bytearray, arr: np.ndarray, compress: bool) -> None:
    arr = np.ascontiguousarray(arr)
    raw = arr.tobytes()
    dtype = arr.dtype.str.encode("ascii")
    use_z = compress and len(raw) >= _COMPRESS_THRESHOLD
    out.append(_T_NDARRAY_Z if use_z else _T_NDARRAY)
    out += struct.pack(">B", len(dtype))
    out += dtype
    out += struct.pack(">B", arr.ndim)
    for dim in arr.shape:
        out += struct.pack(">q", dim)
    payload = zlib.compress(raw, 6) if use_z else raw
    out += struct.pack(">Q", len(payload))
    out += payload


def _read_value(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        (length,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        value = int.from_bytes(buf[pos : pos + length], "big", signed=True)
        return value, pos + length
    if tag == _T_FLOAT:
        (value,) = struct.unpack_from(">d", buf, pos)
        return value, pos + 8
    if tag == _T_STR:
        (length,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        return buf[pos : pos + length].decode("utf-8"), pos + length
    if tag == _T_BYTES:
        (length,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        return bytes(buf[pos : pos + length]), pos + length
    if tag in (_T_LIST, _T_TUPLE):
        (count,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _read_value(buf, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_DICT:
        (count,) = struct.unpack_from(">I", buf, pos)
        pos += 4
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _read_value(buf, pos)
            value, pos = _read_value(buf, pos)
            result[key] = value
        return result, pos
    if tag in (_T_NDARRAY, _T_NDARRAY_Z):
        return _read_ndarray(buf, pos, compressed=(tag == _T_NDARRAY_Z))
    raise StorageError(f"unknown type tag 0x{tag:02x} at offset {pos - 1}")


def _read_ndarray(buf: bytes, pos: int, *, compressed: bool) -> tuple[np.ndarray, int]:
    (dtype_len,) = struct.unpack_from(">B", buf, pos)
    pos += 1
    dtype = np.dtype(buf[pos : pos + dtype_len].decode("ascii"))
    pos += dtype_len
    (ndim,) = struct.unpack_from(">B", buf, pos)
    pos += 1
    shape = []
    for _ in range(ndim):
        (dim,) = struct.unpack_from(">q", buf, pos)
        shape.append(dim)
        pos += 8
    (length,) = struct.unpack_from(">Q", buf, pos)
    pos += 8
    payload = bytes(buf[pos : pos + length])
    pos += length
    raw = zlib.decompress(payload) if compressed else payload
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return arr, pos


# -- order-preserving key encoding -------------------------------------------
#
# One tag byte per value establishes a total order *across* types
# (None < bool < numeric < str < bytes < tuple); within a type the payload
# encoding is order-preserving. Strings/bytes use NUL-escaping so that no
# encoded component is a prefix of another, which keeps tuple keys ordered
# componentwise — the property compound indexes (e.g. (video, frameno))
# rely on.

_K_NONE = 0x05
_K_FALSE = 0x08
_K_TRUE = 0x09
_K_NUM = 0x10
_K_STR = 0x20
_K_BYTES = 0x30
_K_TUPLE = 0x40
_K_END = 0x00

_MAX_EXACT_INT = 1 << 53


def encode_key(value: Any) -> bytes:
    """Encode ``value`` into bytes whose lexicographic order matches the
    natural order of the values.

    Ints and floats share one numeric encoding (an order-flipped IEEE-754
    image), so ``2 < 2.5 < 3`` holds across types. Integers with magnitude
    above 2**53 are rejected because the double image would collide.
    """
    out = bytearray()
    _encode_key_into(out, value)
    return bytes(out)


def _encode_key_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_K_NONE)
    elif value is True:
        out.append(_K_TRUE)
    elif value is False:
        out.append(_K_FALSE)
    elif isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    ):
        if isinstance(value, (int, np.integer)) and abs(int(value)) > _MAX_EXACT_INT:
            raise StorageError(
                f"integer key {value} exceeds 2**53; order encoding would be lossy"
            )
        out.append(_K_NUM)
        out += _orderable_double(float(value))
        # A trailing discriminator restores the exact Python type on decode
        # (1 vs 1.0 encode to the same double image). It participates in
        # the byte order, so numerically equal keys of different types
        # sort int-before-float — deliberately: a total order per
        # component is what keeps *tuple* keys ordered componentwise.
        out.append(1 if isinstance(value, (int, np.integer)) else 2)
    elif isinstance(value, str):
        out.append(_K_STR)
        out += _escape_nul(value.encode("utf-8"))
        out += b"\x00\x00"
    elif isinstance(value, (bytes, bytearray)):
        out.append(_K_BYTES)
        out += _escape_nul(bytes(value))
        out += b"\x00\x00"
    elif isinstance(value, tuple):
        out.append(_K_TUPLE)
        for item in value:
            _encode_key_into(out, item)
        out.append(_K_END)
    else:
        raise StorageError(f"cannot use value of type {type(value).__name__} as a key")


def decode_key(buf: bytes) -> Any:
    """Inverse of :func:`encode_key`."""
    value, pos = _decode_key_from(buf, 0)
    if pos != len(buf):
        raise StorageError("trailing bytes after encoded key")
    return value


def _decode_key_from(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _K_NONE:
        return None, pos
    if tag == _K_TRUE:
        return True, pos
    if tag == _K_FALSE:
        return False, pos
    if tag == _K_NUM:
        image = buf[pos : pos + 8]
        pos += 8
        kind = buf[pos]
        pos += 1
        number = _unorderable_double(image)
        return (int(number) if kind == 1 else number), pos
    if tag == _K_STR:
        payload, pos = _unescape_nul(buf, pos)
        return payload.decode("utf-8"), pos
    if tag == _K_BYTES:
        payload, pos = _unescape_nul(buf, pos)
        return payload, pos
    if tag == _K_TUPLE:
        items = []
        while buf[pos] != _K_END:
            item, pos = _decode_key_from(buf, pos)
            items.append(item)
        return tuple(items), pos + 1
    raise StorageError(f"unknown key tag 0x{tag:02x}")


def _orderable_double(value: float) -> bytes:
    (bits,) = struct.unpack(">Q", struct.pack(">d", value))
    if bits & (1 << 63):
        bits = ~bits & ((1 << 64) - 1)  # negative: flip everything
    else:
        bits |= 1 << 63  # non-negative: set the sign bit
    return struct.pack(">Q", bits)


def _unorderable_double(image: bytes) -> float:
    (bits,) = struct.unpack(">Q", image)
    if bits & (1 << 63):
        bits &= ~(1 << 63) & ((1 << 64) - 1)
    else:
        bits = ~bits & ((1 << 64) - 1)
    (value,) = struct.unpack(">d", struct.pack(">Q", bits))
    return value


def _escape_nul(payload: bytes) -> bytes:
    # 0x00 -> 0x00 0x01 keeps ordering: any real byte b > 0x00 still compares
    # above the escape pair, and the 0x00 0x00 terminator compares below any
    # continuation, making shorter strings sort first (prefix order).
    return payload.replace(b"\x00", b"\x00\x01")


def _unescape_nul(buf: bytes, pos: int) -> tuple[bytes, int]:
    out = bytearray()
    while True:
        byte = buf[pos]
        if byte == 0x00:
            nxt = buf[pos + 1]
            if nxt == 0x00:
                return bytes(out), pos + 2
            if nxt == 0x01:
                out.append(0x00)
                pos += 2
                continue
            raise StorageError("corrupt NUL escape in encoded key")
        out.append(byte)
        pos += 1


def key_range_prefix(prefix: tuple) -> tuple[bytes, bytes]:
    """Byte range ``[lo, hi)`` covering all tuple keys starting with ``prefix``.

    Useful for compound-key scans, e.g. all frames of one video:
    ``lo, hi = key_range_prefix(("cam1",))``.
    """
    body = bytearray()
    for item in prefix:
        _encode_key_into(body, item)
    lo = bytes([_K_TUPLE]) + bytes(body)
    hi = lo + b"\xff"
    return lo, hi
