"""Canonical byte layout shared by every hashing and wire path.

Every value that is ever hashed, signed, or shipped between roles is
encoded here, exactly once, so that all parties agree bit-for-bit. Each
record class states each field once, in byte order, as a dataclass field
annotated ``Annotated[python_type, kind]``; :class:`Record` builds the
class's :class:`Layout` from its TYPE byte and those fields, and the one
encoder and decoder below turn that layout into bytes and back.

Layout rules (normative):

* A record is ``MAGIC byte, VERSION byte, TYPE byte`` followed by its
  fields in declaration order. A wire payload is a field list with no
  header.
* Unsigned integers are big-endian fixed width (``u8``/``u32``/``u64``).
* Variable-length byte strings are a ``u32`` length prefix plus the raw
  bytes (``vbytes``).
* Arbitrary-precision non-negative integers are a ``u32`` length prefix
  plus the minimal big-endian magnitude (``vint``); zero encodes as an
  empty magnitude.
* A flag or presence byte is one ``u8`` that is 0 or 1; any other value
  is rejected. An enumeration is one ``u8`` holding a defined member. An
  optional field is a presence byte, then the field when present.
* A digest list is ``u32 width, u32 count``, then the elements
  concatenated. Its width is its elements' size, 0 when empty; a zero
  width with a nonzero count is rejected.
* Any other list is a ``u32`` element count followed by the encoded
  elements.

The README tabulates each record's fields.

The combination of fixed field order, fixed-width integers and length
prefixes makes each record encoding injective; the TYPE byte keeps the
encodings of distinct record types disjoint. Decoding is strict: any
bytes that decode re-encode to exactly themselves.

Encoding emits each record as a list of pieces (a list field gives one
``u32`` prefix piece and the element itself per element) that the
record joins once. Decoders walk only the bytes present: a list is read
in one pass at a running offset, each element bounds-checked where it
stands, and a digest list is split straight out of the record, 256
elements to a ``struct`` call, once its bytes are known to be there, so
a declared count never sizes an allocation.
"""

from __future__ import annotations

import struct
import sys
from operator import attrgetter
from typing import Any, Callable, ClassVar, NamedTuple

MAGIC = 0xC7
VERSION = 2

TYPE_READING = 0x01
# 0x02 and 0x03 held the epoch window and the retention policy, which no
# role hashes, signs, stores or sends (the policy travels as config); they
# are not reused.
TYPE_ACC_PARAMS = 0x04
TYPE_ACC_VALUE = 0x05
TYPE_SENSOR_ROW = 0x06
TYPE_META_ROW = 0x07
TYPE_DELETION_PROOF = 0x08
# 0x09 held the overwritten cell array in layout version 1; it is not reused.
TYPE_BUNDLE = 0x0A
TYPE_QUERY_RECORD = 0x0B
TYPE_SEALED_BLOCK = 0x0C
TYPE_READING_PLAINTEXT = 0x0D
# 0x0E held the epoch record that nested its metadata row and repeated its
# predecessor's timestamp; 0x0F held the one that flagged the first epoch
# instead of naming its predecessor and sealed a full copy of its timestamp.
# Neither is reused, so such a segment is refused.
TYPE_EPOCH_RECORD = 0x10


class EncodingError(ValueError):
    """Raised when a value cannot be encoded or bytes cannot be decoded."""


def u8(n: int) -> bytes:
    if not 0 <= n <= 0xFF:
        raise EncodingError(f"u8 out of range: {n}")
    return bytes([n])


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def u32(n: int) -> bytes:
    if not 0 <= n <= 0xFFFFFFFF:
        raise EncodingError(f"u32 out of range: {n}")
    return _U32.pack(n)


def u64(n: int) -> bytes:
    if not 0 <= n <= 0xFFFFFFFFFFFFFFFF:
        raise EncodingError(f"u64 out of range: {n}")
    return _U64.pack(n)


def vbytes(b: bytes) -> bytes:
    if len(b) > 0xFFFFFFFF:
        raise EncodingError("byte string too long")
    return _U32.pack(len(b)) + b


def vint(n: int) -> bytes:
    """Length-prefixed minimal big-endian magnitude of a non-negative int."""
    if n < 0:
        raise EncodingError(f"vint requires a non-negative integer, got {n}")
    magnitude = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return vbytes(magnitude)


#: Items that :func:`split_fixed` reads with one ``struct`` call.
_SPLIT_RUN = 256


def split_fixed(data: bytes, start: int, width: int, count: int) -> list[bytes]:
    """The ``count`` consecutive ``width``-byte items of ``data`` from ``start``.

    Runs of :data:`_SPLIT_RUN` items come from one ``struct.unpack_from``
    each, whose compiled format ``struct`` caches; the rest are sliced.
    The caller checks that the bytes are there and that ``width`` is
    positive.
    """
    full, rest = divmod(count, _SPLIT_RUN)
    run_bytes = width * _SPLIT_RUN
    stop = start + full * run_bytes
    fmt = f"{width}s" * _SPLIT_RUN
    items = []
    for offset in range(start, stop, run_bytes):
        items += struct.unpack_from(fmt, data, offset)
    items += [data[i : i + width] for i in range(stop, stop + rest * width, width)]
    return items


class Reader:
    """Sequential decoder over one canonical record."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def expect_header(self, type_byte: int) -> None:
        head = self.take(3)
        if head[0] != MAGIC:
            raise EncodingError(f"bad magic byte 0x{head[0]:02x}")
        if head[1] != VERSION:
            raise EncodingError(f"unsupported layout version {head[1]}")
        if head[2] != type_byte:
            raise EncodingError(
                f"record type mismatch: expected 0x{type_byte:02x}, got 0x{head[2]:02x}"
            )

    def _advance(self, n: int) -> int:
        """Claim the next ``n`` bytes; return where they start."""
        start = self._pos
        if start + n > len(self._data):
            raise EncodingError("truncated record")
        self._pos = start + n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self._data[start : self._pos]

    def take_u8(self) -> int:
        return self.take(1)[0]

    def take_u32(self) -> int:
        return _U32.unpack_from(self._data, self._advance(4))[0]

    def take_u64(self) -> int:
        return _U64.unpack_from(self._data, self._advance(8))[0]

    def take_vbytes(self) -> bytes:
        return self.take(self.take_u32())

    def take_vint(self) -> int:
        magnitude = self.take_vbytes()
        if magnitude and magnitude[0] == 0:
            raise EncodingError("non-minimal integer magnitude")
        return int.from_bytes(magnitude, "big")

    def take_flag(self) -> bool:
        flag = self.take_u8()
        if flag > 1:
            raise EncodingError(f"flag byte must be 0 or 1, got {flag}")
        return flag == 1

    def take_digests(self) -> tuple[bytes, ...]:
        """A digest list: width and count, then :func:`split_fixed` of the record itself.

        The bytes are claimed before anything is split, so a count that
        they cannot back fails as truncated, having allocated nothing.
        """
        width = self.take_u32()
        count = self.take_u32()
        if not count:
            if width:
                raise EncodingError("an empty digest list must declare width 0")
            return ()
        if not width:
            raise EncodingError("zero-width list with a nonzero count")
        return tuple(split_fixed(self._data, self._advance(width * count), width, count))

    def take_vbytes_list(self) -> tuple[bytes, ...]:
        """A ``u32`` count, then that many ``vbytes``, in one pass.

        Each element's prefix and body are bounds-checked where they
        stand, so the list grows only with the bytes present: a count
        that the bytes cannot back fails as truncated, having allocated
        nothing for the elements that are missing.
        """
        count = self.take_u32()
        data, pos, end = self._data, self._pos, len(self._data)
        unpack_from = _U32.unpack_from
        items = []
        for _ in range(count):
            if pos + 4 > end:
                raise EncodingError("truncated record")
            stop = pos + 4 + unpack_from(data, pos)[0]
            if stop > end:
                raise EncodingError("truncated record")
            items.append(data[pos + 4 : stop])
            pos = stop
        self._pos = pos
        return tuple(items)

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise EncodingError(
                f"{len(self._data) - self._pos} trailing bytes after record"
            )


# -- field kinds ---------------------------------------------------------------


class Kind(NamedTuple):
    """How one field is written and read back.

    ``encode`` turns a value into a list of byte strings; a record joins
    all of its pieces once, so nested records and lists are never copied
    on the way.
    """

    encode: Callable[[Any], list[bytes]]
    decode: Callable[[Reader], Any]


def _scalar(to_bytes: Callable[[Any], bytes], decode: Callable[[Reader], Any]) -> Kind:
    return Kind(lambda value: [to_bytes(value)], decode)


U32 = _scalar(u32, Reader.take_u32)
U64 = _scalar(u64, Reader.take_u64)
VBYTES = _scalar(vbytes, Reader.take_vbytes)
VINT = _scalar(vint, Reader.take_vint)
FLAG = _scalar(lambda flag: b"\x01" if flag else b"\x00", Reader.take_flag)


def enum(cls) -> Kind:
    """One ``u8`` holding a member of the ``IntEnum`` ``cls``."""

    def decode(r: Reader):
        value = r.take_u8()
        try:
            return cls(value)
        except ValueError:
            raise EncodingError(f"{value} is not a {cls.__name__}") from None

    return _scalar(lambda member: u8(int(member)), decode)


def nested(cls) -> Kind:
    """A whole record of class ``cls``, header included."""
    return Kind(cls.LAYOUT.parts, cls.read_from)


def optional(kind: Kind) -> Kind:
    """A presence byte, then ``kind`` when the value is not None."""
    return Kind(
        lambda value: [b"\x00"] if value is None else [b"\x01", *kind.encode(value)],
        lambda r: kind.decode(r) if r.take_flag() else None,
    )


def seq(kind: Kind) -> Kind:
    """A ``u32`` count, then each element as ``kind``; decodes to a list."""
    return Kind(
        lambda items: [u32(len(items)), *[p for item in items for p in kind.encode(item)]],
        lambda r: [kind.decode(r) for _ in range(r.take_u32())],
    )


def tup(*kinds: Kind) -> Kind:
    """Several kinds back to back, as one tuple."""
    return Kind(
        lambda values: [p for k, v in zip(kinds, values, strict=True) for p in k.encode(v)],
        lambda r: tuple([k.decode(r) for k in kinds]),
    )


#: Fixed-width list whose width is its elements' size (0 when empty).
DIGESTS = Kind(
    lambda items: [u32(len(items[0]) if items else 0), u32(len(items)), *items],
    Reader.take_digests,
)


def _vbytes_list_parts(items) -> list[bytes]:
    """``u32(count)``, then ``u32(len(item))`` and ``item`` for each item."""
    parts = [u32(len(items))] + [b""] * (2 * len(items))
    try:
        parts[1::2] = map(_U32.pack, map(len, items))
    except struct.error:
        raise EncodingError("byte string too long") from None
    parts[2::2] = items
    return parts


#: A ``u32`` count, then each element as ``vbytes``.
VBYTES_LIST = Kind(_vbytes_list_parts, Reader.take_vbytes_list)


# -- layouts -------------------------------------------------------------------


class Layout:
    """A TYPE byte (None for a headerless wire payload) and ``(name, kind)`` fields in order."""

    def __init__(self, type_byte: int | None, *fields: tuple[str, Kind]):
        self.fields = fields
        self._head = b"" if type_byte is None else bytes([MAGIC, VERSION, type_byte])
        self._writers = [(attrgetter(name), kind.encode) for name, kind in fields]

    def pack(self, *values) -> bytes:
        """Encode one value per field, in field order."""
        parts = [self._head]
        for (_, kind), value in zip(self.fields, values, strict=True):
            parts += kind.encode(value)
        return b"".join(parts)

    def parts(self, obj) -> list[bytes]:
        """The encoding of the fields read by name from ``obj``, in pieces."""
        parts = [self._head]
        for get, encode in self._writers:
            parts += encode(get(obj))
        return parts

    def read(self, r: Reader) -> list:
        """Decode one value per field, in field order."""
        if self._head:
            r.expect_header(self._head[2])
        return [kind.decode(r) for _, kind in self.fields]

    def unpack(self, data: bytes) -> list:
        """Decode exactly ``data``: trailing bytes are an error."""
        r = Reader(data)
        values = self.read(r)
        r.finish()
        return values


class Record:
    """Mixin giving a record class its canonical encoding.

    A subclass sets ``TYPE`` (None for a headerless record) and annotates
    each field, in byte order, as ``Annotated[python_type, kind]``; its
    ``LAYOUT`` is built from them when the class is defined. A field that
    names no kind is a ``TypeError`` there, so no field is left unencoded,
    and the constructor takes decoded values in byte order.
    """

    TYPE: ClassVar[int | None]
    LAYOUT: ClassVar[Layout]

    def __init_subclass__(cls):
        # only the class's own annotations, evaluated once: no typing.get_type_hints walk
        namespace = vars(sys.modules[cls.__module__])
        fields = []
        for name, hint in vars(cls).get("__annotations__", {}).items():
            if isinstance(hint, str):
                hint = eval(hint, namespace)
            kind = getattr(hint, "__metadata__", (None,))[-1]
            if not isinstance(kind, Kind):
                raise TypeError(f"record field {cls.__name__}.{name} names no kind")
            fields.append((name, kind))
        cls.LAYOUT = Layout(cls.TYPE, *fields)

    def to_bytes(self) -> bytes:
        return b"".join(self.LAYOUT.parts(self))

    @classmethod
    def read_from(cls, r: Reader):
        return cls(*cls.LAYOUT.read(r))

    @classmethod
    def from_bytes(cls, data: bytes):
        return cls(*cls.LAYOUT.unpack(data))
