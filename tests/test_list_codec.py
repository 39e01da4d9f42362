"""The list codecs against their per-element definitions.

A ``VBYTES_LIST`` is ``u32(count)`` followed by ``vbytes(item)`` for each
item. The encoder emits prefixes and items as pieces that the record
joins once; the decoder walks the buffer at a running offset. A
``DIGESTS`` list is ``u32(width), u32(count)`` and the items back to
back, which the decoder splits in runs of 256. Both codecs must give
exactly the bytes and values of the element-by-element reference.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_strict_decoding import _address_space_cap

from expunge.encoding import DIGESTS, VBYTES_LIST, EncodingError, Reader, u32, vbytes


def _reference(items) -> bytes:
    return u32(len(items)) + b"".join(vbytes(item) for item in items)


def _encode(items) -> bytes:
    return b"".join(VBYTES_LIST.encode(items))


def _decode(blob: bytes, kind=VBYTES_LIST) -> tuple[bytes, ...]:
    r = Reader(blob)
    items = kind.decode(r)
    r.finish()
    return items


#: Elements over 64 KiB, built from a drawn size and fill byte (cheap to draw).
_LARGE = st.builds(lambda n, fill: bytes([fill]) * n, st.integers(65_537, 70_000), st.integers(0, 255))
_ITEMS = st.lists(st.one_of(st.binary(max_size=40), _LARGE), max_size=12)


@settings(max_examples=150, deadline=None)
@given(_ITEMS)
@example([])
@example([b""])
@example([b"", b"", b"x", b""])
@example([bytes(65_536), bytes(65_537)])
def test_encoding_equals_the_reference_and_decodes_back(items):
    blob = _encode(items)
    assert blob == _reference(items)
    assert _decode(blob) == tuple(items)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(max_size=24), max_size=6))
@example([])
@example([b""])
def test_every_cut_of_an_encoding_is_truncated(items):
    blob = _encode(items)
    for cut in range(len(blob)):
        with pytest.raises(EncodingError, match="truncated record"):
            _decode(blob[:cut])


def test_declared_count_is_not_allocated_before_its_bytes():
    blob = u32(0xFFFFFFFF) + vbytes(b"a") + vbytes(b"bc")
    with _address_space_cap():
        with pytest.raises(EncodingError, match="truncated record"):
            _decode(blob)


class _Huge:
    """Stands in for a byte string one byte too long for a ``u32`` prefix."""

    def __len__(self) -> int:
        return 1 << 32


def test_element_too_long_for_its_prefix_is_refused_like_vbytes():
    with pytest.raises(EncodingError, match="too long"):
        vbytes(_Huge())
    with pytest.raises(EncodingError, match="too long"):
        VBYTES_LIST.encode([b"ok", _Huge()])


@pytest.mark.parametrize("width", [1, 31, 32, 33])
@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
def test_digest_list_splits_like_slices_and_encodes_back(width, count):
    body = bytes(i % 251 for i in range(width * count))
    blob = u32(width if count else 0) + u32(count) + body
    items = _decode(blob, DIGESTS)
    assert items == tuple(body[i * width : (i + 1) * width] for i in range(count))
    assert b"".join(DIGESTS.encode(items)) == blob


@pytest.mark.parametrize(
    "head, match",
    [
        (u32(32) + u32(0xFFFFFFFF), "truncated record"),
        (u32(0xFFFFFFFF) + u32(3), "truncated record"),
        (u32(0) + u32(0xFFFFFFFF), "zero-width"),
        (u32(32) + u32(0), "width 0"),
    ],
)
def test_digest_list_refuses_a_head_its_bytes_cannot_back(head, match):
    with _address_space_cap():
        with pytest.raises(EncodingError, match=match):
            _decode(head + bytes(64), DIGESTS)
