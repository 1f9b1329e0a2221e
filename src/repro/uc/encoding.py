"""Canonical byte encoding of protocol payloads.

Functionalities sort message lists "lexicographically" (FFBC Figure 10
step 2, FSBC Figure 13 step 2(a)i.B) and protocols hash structured values
into random oracles.  Both need a deterministic, injective byte encoding
of the payloads we pass around: ``bytes``, ``str``, ``int``, ``bool``,
``None``, tuples/lists thereof, and (frozen) dataclasses.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple


def encode(value: Any) -> bytes:
    """Deterministic injective encoding (a compact tagged TLV scheme).

    Tags: ``N`` None, ``T``/``F`` bools; ``B`` bytes, ``S`` UTF-8 text and
    ``I`` signed big-endian ints, each after an 8-byte length; ``L``
    sequences after an 8-byte item count; ``D`` dataclasses as a 2-byte
    name length, the class name, then the field values as an ``L``
    sequence.  ``tests/test_encoding.py`` pins the bytes: trace digests
    and sort orders depend on them.
    """
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def _encode_into(value: Any, out: List[bytes]) -> None:
    """Append the encoding of ``value`` to ``out`` (exact built-in types first)."""
    kind = type(value)
    if kind is bytes:
        out.append(b"B" + len(value).to_bytes(8, "big"))
        out.append(value)
    elif kind is tuple or kind is list:
        out.append(b"L" + len(value).to_bytes(8, "big"))
        for item in value:
            _encode_into(item, out)
    elif kind is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out.append(b"I" + len(raw).to_bytes(8, "big") + raw)
    elif kind is str:
        raw = value.encode("utf-8")
        out.append(b"S" + len(raw).to_bytes(8, "big") + raw)
    elif value is None:
        out.append(b"N")
    elif kind is bool:
        out.append(b"T" if value else b"F")
    else:
        layout = _DATACLASS_LAYOUT.get(kind)
        if layout is None:
            _encode_subclass(value, out)
            return
        header, names = layout
        out.append(header)
        for name in names:
            _encode_into(getattr(value, name), out)


def _encode_subclass(value: Any, out: List[bytes]) -> None:
    """Subclasses of the built-in types, and dataclasses not yet seen."""
    if isinstance(value, bool):  # must precede int (bool is an int subclass)
        out.append(b"T" if value else b"F")
    elif isinstance(value, bytes):
        _encode_into(bytes(value), out)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"S" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, int):
        _encode_into(int(value), out)
    elif isinstance(value, (tuple, list)):
        _encode_into(tuple(value), out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = type(value)
        names = tuple(field.name for field in dataclasses.fields(value))
        name = kind.__name__.encode("utf-8")
        header = b"D" + len(name).to_bytes(2, "big") + name + b"L" + len(names).to_bytes(8, "big")
        _DATACLASS_LAYOUT[kind] = (header, names)
        _encode_into(value, out)
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


#: Dataclass type -> (its encoding up to the first field value, field names).
_DATACLASS_LAYOUT: Dict[type, Tuple[bytes, Tuple[str, ...]]] = {}


def sort_key(value: Any) -> bytes:
    """Lexicographic sort key for message payloads.

    Byte and text messages sort by plain content (the natural reading of
    the paper's "sorts lexicographically"); other payloads fall back to
    the canonical encoding, which is deterministic across worlds — the
    property the real/ideal output comparison actually needs.
    """
    if isinstance(value, bytes):
        return b"B" + value
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    return b"X" + encode(value)


#: Dataclass registry for decoding (name -> class).  Protocol modules
#: register the dataclasses they put on the wire.
_DATACLASS_REGISTRY: dict = {}


def register_dataclass(cls: type) -> type:
    """Register ``cls`` so :func:`decode` can reconstruct it (decorator-friendly)."""
    _DATACLASS_REGISTRY[cls.__name__] = cls
    return cls


class DecodeError(ValueError):
    """The byte string is not a valid canonical encoding."""


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`.

    Raises:
        DecodeError: on malformed input or trailing bytes.
    """
    value, end = _decode_at(data, 0)
    if end != len(data):
        raise DecodeError(f"{len(data) - end} trailing bytes")
    return value


_TAG_B, _TAG_S, _TAG_I, _TAG_L, _TAG_D = b"BSILD"
_TAG_N, _TAG_T, _TAG_F = b"NTF"


def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value starting at ``data[pos]``: (value, offset just past it)."""
    size = len(data)
    if pos >= size:
        raise DecodeError("empty input")
    tag = data[pos]
    pos += 1
    if tag == _TAG_B or tag == _TAG_S or tag == _TAG_I:
        start = pos + 8
        if start > size:
            raise DecodeError("truncated length")
        end = start + int.from_bytes(data[pos:start], "big")
        if end > size:
            raise DecodeError("truncated payload")
        payload = data[start:end]
        if tag == _TAG_B:
            return payload, end
        if tag == _TAG_S:
            return payload.decode("utf-8"), end
        return int.from_bytes(payload, "big", signed=True), end
    if tag == _TAG_L:
        start = pos + 8
        if start > size:
            raise DecodeError("truncated list length")
        items = []
        pos = start
        for _ in range(int.from_bytes(data[start - 8 : start], "big")):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_N:
        return None, pos
    if tag == _TAG_T:
        return True, pos
    if tag == _TAG_F:
        return False, pos
    if tag == _TAG_D:
        start = pos + 2
        if start > size:
            raise DecodeError("truncated dataclass name")
        end = start + int.from_bytes(data[pos:start], "big")
        if end > size:
            raise DecodeError("truncated dataclass name")
        name = data[start:end].decode("utf-8")
        fields, pos = _decode_at(data, end)
        cls = _DATACLASS_REGISTRY.get(name)
        if cls is None:
            raise DecodeError(f"unregistered dataclass {name!r}")
        return cls(*fields), pos
    raise DecodeError(f"unknown tag {data[pos - 1 : pos]!r}")
