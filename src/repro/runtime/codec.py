"""The datagram wire format of the real-time backend's UDP fabric.

One total, schema-driven tag-length-value encoding.  A payload is plain
data from a closed vocabulary or a *registered* message dataclass whose
layout is derived from ``dataclasses.fields()``: this module names no
field of any message, so a new field or message class needs no edit
here and cannot be dropped by a stale hand-written body.  Nothing that
arrives on a socket is ever unpickled.

Framing (network byte order throughout)::

    magic 0xC7 | version 0x02 | src: u16 len + utf8 | size: u32 | value

``value`` is one tag byte followed by a tag-specific body:

* ``None``, ``True``, ``False`` — the tag alone;
* ``int`` — an i64, or for wider values a u32 length plus the signed
  big-endian two's-complement bytes; ``float`` — an IEEE-754 double;
* ``str`` / ``bytes`` — u32 length plus the (UTF-8) bytes;
* ``tuple`` / ``list`` / ``set`` / ``frozenset`` — one tag each, so
  application payloads keep their type: u32 count, then the items;
* ``dict`` — u32 count, then that many key/value pairs;
* a registered dataclass — u8 class index (its position in
  :data:`WIRE_CLASSES`), then every field as a value in ``fields()``
  order; the decoder reads that many values and calls ``cls(*values)``.

Exact types only: ``bool`` is not an ``int`` here, and subclasses
(``IntEnum``, named tuples) are not wire types.  Anything else is an
error *at the sender*: :func:`encode_datagram` raises
:class:`CodecError` naming the type.  :func:`decode_datagram` treats
its input as hostile and raises :class:`CodecError` and nothing else.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, List, Tuple, Type

from ..core import messages as core_messages
from ..naming import messages as naming_messages
from ..naming.records import MappingRecord
from ..sim.transport import _Segment
from ..vsync import messages as vsync_messages
from ..vsync.view import View, ViewId
from .interfaces import NodeId

MAGIC = 0xC7
VERSION = 2
#: Containers and messages may nest this deep; deeper payloads are
#: rejected on both sides instead of exhausting the interpreter stack.
MAX_DEPTH = 64

# Value tags.
_NONE = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT = 0x03
_BIGINT = 0x04
_FLOAT = 0x05
_STR = 0x06
_BYTES = 0x07
_TUPLE = 0x08
_LIST = 0x09
_SET = 0x0A
_FROZENSET = 0x0B
_DICT = 0x0C
_OBJECT = 0x0D

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

_Class = Type[Any]
_CONSTANTS: Dict[int, Any] = {_NONE: None, _TRUE: True, _FALSE: False}
_FIXED_WIDTH: Dict[int, struct.Struct] = {_INT: _I64, _FLOAT: _F64}
_SEQUENCE_TAGS: Dict[_Class, int] = {
    tuple: _TUPLE, list: _LIST, set: _SET, frozenset: _FROZENSET,
}
_SEQUENCE_TYPES: Dict[int, _Class] = {tag: kind for kind, tag in _SEQUENCE_TAGS.items()}

#: Every wire dataclass: the message modules' own, the value types they
#: embed and the transport envelope.  The on-wire class index is the
#: position here, so all processes on a fabric run the same modules.
WIRE_CLASSES: Tuple[_Class, ...] = (ViewId, View, MappingRecord, _Segment) + tuple(
    obj
    for module in (vsync_messages, core_messages, naming_messages)
    for obj in vars(module).values()
    if isinstance(obj, type)
    and dataclasses.is_dataclass(obj)
    and obj.__module__ == module.__name__
)
if len(WIRE_CLASSES) > 256:
    raise RuntimeError("the u8 class index cannot address every wire class")

_CLASS_INDEX: Dict[_Class, int] = {cls: index for index, cls in enumerate(WIRE_CLASSES)}
_FIELD_NAMES: Tuple[Tuple[str, ...], ...] = tuple(
    tuple(f.name for f in dataclasses.fields(cls)) for cls in WIRE_CLASSES
)


class CodecError(ValueError):
    """A payload is not encodable, or a datagram is not decodable."""


class OversizeDatagramError(ValueError):
    """An encoded datagram exceeds the fabric's ceiling.

    Carries the measured size so callers can report or split; raised by
    the fabric (which owns the ceiling), not by the codec itself.
    """

    def __init__(self, src: NodeId, encoded_bytes: int, limit: int):
        super().__init__(
            f"payload from {src!r} encodes to {encoded_bytes} bytes, "
            f"over the {limit}-byte datagram ceiling"
        )
        self.src = src
        self.encoded_bytes = encoded_bytes
        self.limit = limit


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------
def _w_value(out: bytearray, value: Any, depth: int) -> None:
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8", "surrogatepass")
        out.append(_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif kind is int and -(1 << 63) <= value < (1 << 63):
        out.append(_INT)
        out += _I64.pack(value)
    elif kind is int:
        raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
        out.append(_BIGINT)
        out += _U32.pack(len(raw))
        out += raw
    elif value is None:
        out.append(_NONE)
    elif kind is bool:
        out.append(_TRUE if value else _FALSE)
    elif kind is bytes:
        out.append(_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif kind is float:
        out.append(_FLOAT)
        out += _F64.pack(value)
    elif depth >= MAX_DEPTH:
        raise CodecError(f"payload nests deeper than {MAX_DEPTH} levels")
    elif kind in _CLASS_INDEX:
        index = _CLASS_INDEX[kind]
        out.append(_OBJECT)
        out.append(index)
        for name in _FIELD_NAMES[index]:
            _w_value(out, getattr(value, name), depth + 1)
    elif kind in _SEQUENCE_TAGS:
        out.append(_SEQUENCE_TAGS[kind])
        out += _U32.pack(len(value))
        for item in value:
            _w_value(out, item, depth + 1)
    elif kind is dict:
        out.append(_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _w_value(out, key, depth + 1)
            _w_value(out, item, depth + 1)
    else:
        name = f"{kind.__module__}.{kind.__qualname__}"
        raise CodecError(f"{name} is not plain data or a registered wire dataclass")


# ----------------------------------------------------------------------
# Value decoding
# ----------------------------------------------------------------------
def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise CodecError(f"truncated datagram: need {count} bytes at offset {offset}")


def _r_count(data: bytes, offset: int, width: int) -> Tuple[int, int]:
    """A u32 count of items at least ``width`` bytes each; one the bytes
    that remain cannot hold is rejected before anything is allocated."""
    _need(data, offset, 4)
    (count,) = _U32.unpack_from(data, offset)
    _need(data, offset + 4, count * width)
    return count, offset + 4


def _r_values(data: bytes, offset: int, count: int, depth: int) -> Tuple[List[Any], int]:
    if depth >= MAX_DEPTH:
        raise CodecError(f"datagram nests deeper than {MAX_DEPTH} levels")
    values: List[Any] = []
    for _ in range(count):
        value, offset = _r_value(data, offset, depth + 1)
        values.append(value)
    return values, offset


def _build(factory: Callable[..., Any], *args: Any) -> Any:
    """``factory(*args)``; an unhashable dict key or set member, or a
    constructor's own check (``View.__post_init__``), is a bad frame."""
    try:
        return factory(*args)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"undecodable value: {exc}") from None


def _r_value(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    _need(data, offset, 1)
    tag = data[offset]
    offset += 1
    if tag == _STR or tag == _BYTES or tag == _BIGINT:
        length, offset = _r_count(data, offset, 1)
        raw = data[offset : offset + length]
        if tag == _STR:
            return raw.decode("utf-8", "surrogatepass"), offset + length
        if tag == _BIGINT:
            return int.from_bytes(raw, "big", signed=True), offset + length
        return raw, offset + length
    if tag in _FIXED_WIDTH:
        _need(data, offset, 8)
        return _FIXED_WIDTH[tag].unpack_from(data, offset)[0], offset + 8
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], offset
    if tag == _OBJECT:
        _need(data, offset, 1)
        index = data[offset]
        if index >= len(WIRE_CLASSES):
            raise CodecError(f"unknown class index {index} at offset {offset}")
        values, offset = _r_values(data, offset + 1, len(_FIELD_NAMES[index]), depth)
        return _build(WIRE_CLASSES[index], *values), offset
    if tag in _SEQUENCE_TYPES:
        count, offset = _r_count(data, offset, 1)
        values, offset = _r_values(data, offset, count, depth)
        return _build(_SEQUENCE_TYPES[tag], values), offset
    if tag == _DICT:
        count, offset = _r_count(data, offset, 2)
        values, offset = _r_values(data, offset, 2 * count, depth)
        return _build(dict, zip(values[::2], values[1::2])), offset
    raise CodecError(f"unknown value tag 0x{tag:02x} at offset {offset - 1}")


# ----------------------------------------------------------------------
# Datagram framing
# ----------------------------------------------------------------------
def encode_datagram(src: NodeId, payload: Any, size: int) -> bytes:
    """Frame one datagram; :class:`CodecError` on a non-wire payload type."""
    raw_src = src.encode("utf-8")
    out = bytearray((MAGIC, VERSION))
    out += _U16.pack(len(raw_src))
    out += raw_src
    out += _U32.pack(size)
    _w_value(out, payload, 0)
    return bytes(out)


def decode_datagram(data: bytes) -> Tuple[NodeId, Any, int]:
    """Decode one datagram; :class:`CodecError` on anything malformed."""
    _need(data, 0, 4)
    if data[0] != MAGIC:
        raise CodecError(f"bad magic byte 0x{data[0]:02x}")
    if data[1] != VERSION:
        raise CodecError(f"unsupported wire-format version {data[1]}")
    (src_len,) = _U16.unpack_from(data, 2)
    offset = 4 + src_len
    _need(data, offset, 4)
    try:
        src = data[4:offset].decode("utf-8")
        (size,) = _U32.unpack_from(data, offset)
        payload, offset = _r_value(data, offset + 4, 0)
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in datagram: {exc}") from None
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after payload")
    return src, payload, size
