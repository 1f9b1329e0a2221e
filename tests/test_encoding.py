"""Canonical encoding: injectivity, round-trips, sort keys."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tle.astrolabous import TLECiphertext
from repro.uc.encoding import DecodeError, decode, encode, sort_key


def test_primitives_roundtrip():
    for value in (None, True, False, 0, -1, 2**100, b"", b"abc", "", "héllo", ()):
        assert decode(encode(value)) == value


def test_tuple_roundtrip():
    value = (1, (b"x", "y"), None, (True, (-5,)))
    assert decode(encode(value)) == value


def test_list_decodes_as_tuple():
    assert decode(encode([1, 2, 3])) == (1, 2, 3)


def test_bool_distinct_from_int():
    assert encode(True) != encode(1)
    assert encode(False) != encode(0)


def test_bytes_distinct_from_str():
    assert encode(b"a") != encode("a")


def test_distinct_values_distinct_encodings():
    values = [None, True, False, 0, 1, -1, b"", b"\x00", "", "\x00", (), (0,), ((),)]
    encodings = [encode(v) for v in values]
    assert len(set(encodings)) == len(encodings)


def test_concatenation_ambiguity_resolved():
    assert encode((b"ab", b"c")) != encode((b"a", b"bc"))


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        encode(object())
    with pytest.raises(TypeError):
        encode(1.5)


def test_trailing_bytes_rejected():
    with pytest.raises(DecodeError):
        decode(encode(1) + b"x")


def test_truncated_rejected():
    raw = encode((1, 2, 3))
    with pytest.raises(DecodeError):
        decode(raw[:-1])


def test_empty_rejected():
    with pytest.raises(DecodeError):
        decode(b"")


def test_unknown_tag_rejected():
    with pytest.raises(DecodeError):
        decode(b"Zjunk")


def test_registered_dataclass_roundtrip():
    ct = TLECiphertext(
        difficulty=1, rate=2, body=b"body", chain=tuple(bytes(32) for _ in range(3))
    )
    assert decode(encode(ct)) == ct


def test_sort_key_orders_consistently():
    values = [b"b", b"a", b"c"]
    assert sorted(values, key=sort_key) == [b"a", b"b", b"c"]


# -- property tests ---------------------------------------------------------

payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)


@given(payloads)
def test_roundtrip_property(value):
    assert decode(encode(value)) == value


@given(payloads, payloads)
def test_injectivity_property(a, b):
    if a != b:
        assert encode(a) != encode(b)


# -- byte pins ----------------------------------------------------------------

_CHAIN0 = (bytes(range(32)),)
_CHAIN1 = tuple(bytes([i]) * 32 for i in range(3))

#: (value, its canonical encoding in hex), captured from the reference
#: encoder.  Trace digests and wire sizes hash these bytes, so any change
#: to them is a protocol-visible change, not a refactor.
PINNED = [
    (None, "4e"),
    (True, "54"),
    (False, "46"),
    (0, "4900000000000000020000"),
    (-1, "490000000000000002ffff"),
    (127, "490000000000000002007f"),
    (128, "490000000000000003000080"),
    (255, "4900000000000000030000ff"),
    (256, "490000000000000003000100"),
    (-256, "490000000000000003ffff00"),
    (2**64, "49000000000000000a00010000000000000000"),
    (-(2**64), "49000000000000000affff0000000000000000"),
    ("héllo wörld ✓", "53000000000000001168c3a96c6c6f2077c3b6726c6420e29c93"),
    (b"", "420000000000000000"),
    (b"\xab" * 300, "42000000000000012c" + "ab" * 300),
    ([], "4c0000000000000000"),
    (
        ("nested", [1, (b"x", [None, True])], ()),
        "4c0000000000000003"
        "5300000000000000066e6573746564"
        "4c0000000000000002" "4900000000000000020001"
        "4c0000000000000002" "420000000000000001" "78"
        "4c0000000000000002" "4e" "54"
        "4c0000000000000000",
    ),
    (
        TLECiphertext(difficulty=0, rate=4, body=b"key-exposed", chain=_CHAIN0),
        "44000d544c45436970686572746578744c0000000000000004"
        "4900000000000000020000" "4900000000000000020004"
        "42000000000000000b6b65792d6578706f736564"
        "4c0000000000000001" "420000000000000020" + bytes(range(32)).hex(),
    ),
    (
        TLECiphertext(difficulty=1, rate=2, body=b"body", chain=_CHAIN1),
        "44000d544c45436970686572746578744c0000000000000004"
        "4900000000000000020001" "4900000000000000020002"
        "420000000000000004626f6479"
        "4c0000000000000003"
        + "".join("420000000000000020" + f"{i:02x}" * 32 for i in range(3)),
    ),
]


@pytest.mark.parametrize("value, pinned", PINNED, ids=lambda v: repr(v)[:24])
def test_encoding_is_byte_pinned(value, pinned):
    assert encode(value).hex() == pinned


@pytest.mark.parametrize("value, pinned", PINNED, ids=lambda v: repr(v)[:24])
def test_every_strict_prefix_and_a_trailing_byte_rejected(value, pinned):
    raw = bytes.fromhex(pinned)
    for end in range(len(raw)):
        with pytest.raises(DecodeError):
            decode(raw[:end])
    with pytest.raises(DecodeError):
        decode(raw + b"\x00")


def test_decode_error_paths():
    for raw in (
        b"B\x00\x00",  # truncated length
        b"B" + (5).to_bytes(8, "big") + b"abc",  # truncated payload
        b"L\x00",  # truncated list length
        b"L" + (2).to_bytes(8, "big") + b"N",  # list shorter than its count
        b"D\x00",  # truncated dataclass name
        b"D\x00\x03Foo" + encode(()),  # unregistered dataclass
        b"Q",  # unknown tag
    ):
        with pytest.raises(DecodeError):
            decode(raw)


def _as_decoded(value):
    """What ``decode(encode(value))`` returns: lists come back as tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_as_decoded(item) for item in value)
    return value


mixed_payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple),
    max_leaves=16,
)


@given(mixed_payloads)
def test_roundtrip_with_lists_property(value):
    assert decode(encode(value)) == _as_decoded(value)
